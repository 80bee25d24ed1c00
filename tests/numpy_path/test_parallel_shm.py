"""Slab-parallel tests of tests/test_parallel_shm.py on the numpy path (see
conftest.py), where every call runs its slab jobs on one thread: the same
container and decoded bytes as the C path, and the same error order."""
from tests.test_parallel_shm import (  # noqa: F401
    test_compress_raises_the_lowest_failing_slab,
    test_container_matches_pinned_digests,
    test_decode_raises_the_lowest_failing_slab,
    test_payload_fault_beats_a_later_bad_header,
)
