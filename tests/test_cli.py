"""Tests for the command-line interface."""
import json

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def npy_field(tmp_path, field_2d):
    path = tmp_path / "field.npy"
    np.save(path, field_2d)
    return path


def test_compress_decompress_roundtrip(tmp_path, npy_field, field_2d, capsys):
    blob = tmp_path / "field.rz"
    out = tmp_path / "out.npy"
    assert main(["compress", str(npy_field), str(blob), "--eb", "1e-3"]) == 0
    assert "CR" in capsys.readouterr().out
    assert main(["decompress", str(blob), str(out)]) == 0
    recon = np.load(out)
    assert recon.shape == field_2d.shape
    assert np.abs(recon.astype(np.float64) - field_2d).max() <= 1e-3


def test_compress_with_qp_flags(tmp_path, npy_field, field_2d):
    blob = tmp_path / "f.rz"
    rc = main([
        "compress", str(npy_field), str(blob), "--eb", "1e-3",
        "--compressor", "qoz", "--qp", "--qp-condition", "II",
        "--qp-max-level", "3",
    ])
    assert rc == 0
    out = tmp_path / "o.npy"
    main(["decompress", str(blob), str(out)])
    assert np.abs(np.load(out).astype(np.float64) - field_2d).max() <= 1e-3


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--qp"], "does not support quantization index prediction"),
        (["--adaptive-bits", "2"], "does not support adaptive quantization"),
    ],
    ids=["qp", "adaptive"],
)
def test_option_the_base_cannot_honor_exits_with_its_message(
    tmp_path, npy_field, flags, message
):
    # ZFP has no qp stage and no adaptive quantizer: the CLI refuses the
    # flag instead of writing a blob without it
    blob = tmp_path / "f.rz"
    with pytest.raises(SystemExit, match=message):
        main(["compress", str(npy_field), str(blob), "--eb", "1e-3",
              "--compressor", "zfp", *flags])
    assert not blob.exists()


def test_relative_bound(tmp_path, npy_field, field_2d):
    blob = tmp_path / "f.rz"
    main(["compress", str(npy_field), str(blob), "--eb", "1e-3", "--rel"])
    out = tmp_path / "o.npy"
    main(["decompress", str(blob), str(out)])
    eb = 1e-3 * float(field_2d.max() - field_2d.min())
    assert np.abs(np.load(out).astype(np.float64) - field_2d).max() <= eb


def test_info_dumps_header(tmp_path, npy_field, capsys):
    blob = tmp_path / "f.rz"
    main(["compress", str(npy_field), str(blob), "--eb", "1e-3"])
    capsys.readouterr()  # drain the compress report
    assert main(["info", str(blob)]) == 0
    header = json.loads(capsys.readouterr().out)
    assert header["compressor"] == "sz3"
    assert "section_sizes" in header


def test_dataset_generation(tmp_path, capsys):
    out = tmp_path / "mini.npy"
    rc = main(["dataset", "miranda", "pressure", "-o", str(out),
               "--shape", "16,24,24", "--seed", "3"])
    assert rc == 0
    data = np.load(out)
    assert data.shape == (16, 24, 24)


def test_evaluate_command(capsys):
    rc = main(["evaluate", "-d", "s3d", "-f", "pressure", "-c", "zfp",
               "--eb", "1e-3", "--rel"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PSNR" in out and "CR" in out


def test_characterize_command(capsys):
    rc = main(["characterize", "-d", "miranda", "-f", "velocityx",
               "--eb", "1e-3", "--rel"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H(Q)" in out


def test_sweep_command(capsys):
    rc = main(["sweep", "-d", "s3d", "-f", "pressure", "-c", "sz3",
               "--bounds", "1e-2,1e-3", "--qp"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gain %" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["explode"])


def test_missing_required_arg():
    with pytest.raises(SystemExit):
        main(["compress", "a.npy", "b.rz"])  # --eb missing


def test_archive_and_extract(tmp_path, capsys):
    arch = tmp_path / "ds.rarc"
    rc = main(["archive", "segsalt", "-o", str(arch), "--eb", "1e-3", "--rel",
               "--shape", "24,24,12", "--qp"])
    assert rc == 0
    assert "CR" in capsys.readouterr().out

    rc = main(["extract", str(arch), "list"])
    assert rc == 0
    listed = capsys.readouterr().out
    assert "Pressure2000" in listed

    out = tmp_path / "p.npy"
    rc = main(["extract", str(arch), "Pressure2000", "-o", str(out)])
    assert rc == 0
    data = np.load(out)
    assert data.shape == (24, 24, 12)
