"""Pipeline-spec serialization, stage-registry, and spec-driven decode tests.

Covers the three contracts of the stage-pipeline layer:

* the explicit ``to_header``/``from_header`` encoding round-trips every
  registered pipeline and rejects malformed/unknown/mis-versioned input
  with the typed errors from :mod:`repro.errors`;
* the registry listings (``COMPRESSORS``/``INTERP_COMPRESSORS``/
  ``supports_qp``) are views over the pipeline registrations;
* a spec derived from a frozen golden container decodes it to the exact
  pinned digest — proving spec-driven dispatch reads the same bytes the
  pre-pipeline decoders wrote.
"""
import hashlib
import json
from pathlib import Path

import pytest

from repro.compressors import COMPRESSORS, INTERP_COMPRESSORS, decompress_any, supports_qp
from repro.compressors.base import Blob
from repro.errors import PipelineSpecError, UnknownStageError, VersionError
from repro.pipeline import (
    PipelineSpec,
    StageSpec,
    pipeline_spec,
    registered_pipelines,
    registered_stage_ids,
    resolve_stage,
    spec_for_blob,
)
from repro.pipeline.spec import SPEC_HEADER_VERSION

pytestmark = pytest.mark.pipeline

DATA_DIR = Path(__file__).parent / "data"


# -- explicit header encoding -------------------------------------------------


@pytest.mark.parametrize("name", registered_pipelines())
def test_spec_header_round_trip(name):
    spec = pipeline_spec(name)
    encoded = spec.to_header()
    # the encoding must survive the container's JSON header
    encoded = json.loads(json.dumps(encoded))
    restored = PipelineSpec.from_header(encoded)
    assert restored == spec
    assert restored.stage_ids() == spec.stage_ids()


def test_spec_header_shape():
    encoded = pipeline_spec("sz3").to_header()
    assert encoded["version"] == SPEC_HEADER_VERSION
    assert encoded["name"] == "sz3"
    assert all(
        isinstance(sid, str) and isinstance(params, dict)
        for sid, params in encoded["stages"]
    )


def test_unknown_stage_id_rejected():
    encoded = {
        "version": SPEC_HEADER_VERSION,
        "name": "custom",
        "stages": [["golomb", {}]],
    }
    with pytest.raises(UnknownStageError) as exc:
        PipelineSpec.from_header(encoded)
    assert "golomb" in str(exc.value)
    # the typed error doubles as both the spec-layer and mapping-layer type
    assert isinstance(exc.value, PipelineSpecError)
    assert isinstance(exc.value, KeyError)


def test_resolve_stage_unknown_id():
    with pytest.raises(UnknownStageError):
        resolve_stage("does_not_exist")


def test_future_version_rejected():
    encoded = pipeline_spec("sz3").to_header()
    encoded["version"] = SPEC_HEADER_VERSION + 1
    with pytest.raises(VersionError):
        PipelineSpec.from_header(encoded)


@pytest.mark.parametrize(
    "encoded",
    [
        "not a dict",
        {"version": "1", "name": "sz3", "stages": [["huffman", {}]]},
        {"version": SPEC_HEADER_VERSION, "name": "", "stages": [["huffman", {}]]},
        {"version": SPEC_HEADER_VERSION, "name": "sz3", "stages": []},
        {"version": SPEC_HEADER_VERSION, "name": "sz3", "stages": [["huffman"]]},
        {"version": SPEC_HEADER_VERSION, "name": "sz3", "stages": [[1, {}]]},
    ],
    ids=["non-dict", "str-version", "empty-name", "no-stages", "1-tuple", "int-id"],
)
def test_malformed_header_rejected(encoded):
    with pytest.raises(PipelineSpecError):
        PipelineSpec.from_header(encoded)


def test_stage_specs_buildable():
    # every stage of every registered pipeline instantiates from its params
    for name in registered_pipelines():
        spec = pipeline_spec(name).validate()
        for s in spec.stages:
            stage = s.build()
            assert stage.stage_id == s.stage
            assert callable(stage.forward) and callable(stage.inverse)


def test_registered_stage_ids_sorted_and_resolvable():
    ids = registered_stage_ids()
    assert ids == tuple(sorted(ids))
    for sid in ids:
        assert resolve_stage(sid).stage_id == sid


# -- registry as a view over the registrations --------------------------------


def test_registry_derived_from_pipelines():
    assert COMPRESSORS == registered_pipelines()
    assert INTERP_COMPRESSORS == tuple(
        n for n in COMPRESSORS if pipeline_spec(n).has_stage("interp_predict")
    )
    for name in COMPRESSORS:
        assert supports_qp(name) == pipeline_spec(name).has_stage("qp")


def test_supports_qp_unknown_name():
    with pytest.raises(KeyError):
        supports_qp("nonexistent")


def test_sz3_predictor_variants():
    assert pipeline_spec("sz3", predictor="lorenzo").stage_ids()[0] == "lorenzo_predict"
    assert (
        pipeline_spec("sz3", predictor="regression").stage_ids()[0]
        == "regression_predict"
    )
    assert pipeline_spec("sz3").stage_ids()[0] == "interp_predict"


def test_pipeline_lint_clean():
    # the CI lint (tools/check_api.py) holds every registered pipeline to
    # the stage-chain contract; `pytest -m pipeline` runs it in-process
    import sys

    tools = str(Path(__file__).resolve().parents[1] / "tools")
    sys.path.insert(0, tools)
    try:
        import check_api
    finally:
        sys.path.remove(tools)
    results = check_api.check_pipelines()
    bad = {name: probs for name, probs in results.items() if probs}
    assert not bad, f"pipeline-lint violations: {bad}"
    assert set(results) == {f"pipeline[{n}]" for n in registered_pipelines()}


# -- spec-driven golden decode ------------------------------------------------


def test_spec_derived_from_golden_blob():
    raw = (DATA_DIR / "sz3_miranda_qp.blob").read_bytes()
    blob = Blob.from_bytes(raw)
    spec = spec_for_blob(blob.header, blob.sections)
    assert spec.name == "sz3"
    assert spec.stage_ids() == (
        "interp_predict",
        "quantize",
        "qp",
        "huffman",
        "lossless",
    )
    # the fixture was compressed with QP enabled, so the derived qp stage
    # carries the config the engine meta recorded
    assert spec.stage("qp").params.get("config")
    # the spec stage params rebuild a working QP transform
    assert spec.stage("qp").build().config.to_dict() == blob.header["engine"]["qp"]


def test_spec_driven_decode_matches_golden_digest():
    manifest = json.loads((DATA_DIR / "golden_decode.json").read_text())
    entry = manifest["sz3_miranda_qp.blob"]
    raw = (DATA_DIR / "sz3_miranda_qp.blob").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == entry["fixture_sha256"]
    out = decompress_any(raw)
    assert list(out.shape) == entry["shape"]
    assert str(out.dtype) == entry["dtype"]
    assert hashlib.sha256(out.tobytes()).hexdigest() == entry["decoded_sha256"]


def test_spec_for_blob_refines_entropy_from_wire_id():
    import numpy as np

    from repro.compressors.base import encode_index_stream

    stream = encode_index_stream(np.arange(200, dtype=np.int64), entropy="range")
    header = {"compressor": "sz3"}
    spec = spec_for_blob(header, {"indices": stream})
    assert spec.has_stage("range")
    assert not spec.has_stage("huffman")
    # header-only derivation keeps the pipeline's default entropy stage
    assert spec_for_blob(header).has_stage("huffman")


def test_spec_for_blob_rejects_unknown_wire_id():
    """A wire byte no entropy stage owns is corrupt, not silently Huffman."""
    import numpy as np

    from repro.compressors.base import encode_index_stream
    from repro.errors import CorruptBlobError

    stream = encode_index_stream(np.arange(200, dtype=np.int64))
    tampered = bytes([7]) + stream[1:]
    with pytest.raises(CorruptBlobError, match="unknown entropy stage id 7"):
        spec_for_blob({"compressor": "sz3"}, {"indices": tampered})
