"""Streamed-container tests of tests/test_streaming.py on the numpy path
(see conftest.py): each slab encodes and each segment decodes as its own
job on the worker threads, through the numpy loops."""
import pytest

from tests.test_streaming import (  # noqa: F401
    test_stream_adaptive_segments_match,
    test_stream_checksum_segments_match_sealed_compress,
    test_stream_segments_match_per_slab_compress,
    test_threaded_encode_raises_the_lowest_failing_slab,
    test_threaded_decode_matches_per_segment_decompress,
    test_threaded_decode_raises_the_lowest_failing_segment,
    test_threaded_decode_records_one_span_per_segment,
)

pytestmark = pytest.mark.streaming
