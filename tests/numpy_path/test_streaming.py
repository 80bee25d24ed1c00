"""Two streamed-container tests of tests/test_streaming.py on the numpy
path (see conftest.py): a streamed decode runs the stacked route of
``decompress_volumes`` for the slabs of each batch."""
import pytest

from tests.test_streaming import (  # noqa: F401
    test_stream_adaptive_segments_match,
    test_stream_segments_match_per_slab_compress,
)

pytestmark = pytest.mark.streaming
