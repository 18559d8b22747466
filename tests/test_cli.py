import csv
import json
from pathlib import Path

from scmodem.cli import main


def _read(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_preamble_outputs(tmp_path):
    assert main(["preamble", "--out", str(tmp_path)]) == 0
    rows = _read(tmp_path / "preamble_mcor.csv")
    assert rows[0] == ["k", "mcor", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"]
    assert len(rows) == 257  # header + 256 k values
    best = _read(tmp_path / "preamble_best.csv")
    assert len(best) == 9
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "preamble"
    assert manifest["params"]["k_star"] == 1


def test_preamble_degenerate_all_zero(tmp_path):
    assert main(["preamble", "--preamble", "00000000", "--out", str(tmp_path)]) == 0
    rows = _read(tmp_path / "preamble_mcor.csv")
    assert rows[1][:2] == ["0", "32"]  # Mcor(0) = 32


def test_preamble_malformed_rejected(tmp_path):
    assert main(["preamble", "--preamble", "xyz", "--out", str(tmp_path)]) == 2
    assert main(["preamble", "--preamble", "AABB", "--out", str(tmp_path)]) == 2


def test_ber_subcommand(tmp_path):
    assert main([
        "ber", "--ebno-list", "4,6", "--frames", "60", "--coding", "off",
        "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    rows = _read(tmp_path / "ber.csv")
    assert len(rows) == 3
    assert float(rows[1][1]) > float(rows[2][1])  # BER falls with Eb/N0


def test_ber_zero_frames_rejected(tmp_path):
    assert main(["ber", "--frames", "0", "--out", str(tmp_path)]) == 2


def test_ber_extra_k_out_of_range_rejected(tmp_path, capsys):
    assert main(["ber", "--extra-k", "300", "--out", str(tmp_path)]) == 2
    assert main(["ber", "--threshold", "0", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_ber_nan_ebno_rejected(tmp_path, capsys):
    assert main(["ber", "--ebno-list", "nan", "--out", str(tmp_path)]) == 2
    assert main(["ber", "--ebno-list", "6,inf", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    assert main(["ber", "--no-such-flag"]) == 2


def test_sync_false_alarm(tmp_path):
    assert main([
        "sync", "--mode", "false-alarm", "--frames", "50", "--out", str(tmp_path),
    ]) == 0
    rows = _read(tmp_path / "sync_false_alarm.csv")
    assert len(rows) == 33
    estimates = [float(r[1]) for r in rows[1:]]
    assert estimates == sorted(estimates, reverse=True)


def test_sync_detection(tmp_path):
    assert main([
        "sync", "--mode", "detection", "--p-list", "0.0", "--trials", "200",
        "--threshold", "28", "--out", str(tmp_path),
    ]) == 0
    rows = _read(tmp_path / "sync_detection.csv")
    assert float(rows[1][1]) == 1.0


def test_sync_p_out_of_range_rejected(tmp_path, capsys):
    assert main(["sync", "--mode", "detection", "--p-list", "0.7", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_eye_subcommand(tmp_path):
    assert main(["eye", "--oversampling", "8", "--symbols", "64", "--out", str(tmp_path)]) == 0
    rows = _read(tmp_path / "eye.csv")
    assert rows[0] == ["trace_id", "sample_index", "amplitude"]
    assert len(rows) > 1


def test_eye_rejects_low_oversampling(tmp_path):
    assert main(["eye", "--oversampling", "1", "--out", str(tmp_path)]) == 2


def test_fifo_subcommand(tmp_path):
    assert main(["fifo", "--frames", "200", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "fifo.json").read_text())
    assert rep["underflow_count"] == 0 and rep["overflow_count"] == 0


def test_fifo_rejects_depth(tmp_path):
    assert main(["fifo", "--depth", "1", "--out", str(tmp_path)]) == 2


def test_fifo_zero_scale_rejected(tmp_path, capsys):
    assert main(["fifo", "--write-scale", "0", "--out", str(tmp_path)]) == 2
    assert main(["fifo", "--read-scale", "-1", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_fifo_overflow_with_skew(tmp_path):
    assert main([
        "fifo", "--frames", "500", "--write-scale", "101/100", "--out", str(tmp_path),
    ]) == 0
    rep = json.loads((tmp_path / "fifo.json").read_text())
    assert rep["overflow_count"] > 0


def test_repeat_run_is_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["sync", "--mode", "false-alarm", "--frames", "30", "--seed", "5"]
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert (d1 / "sync_false_alarm.csv").read_bytes() == (d2 / "sync_false_alarm.csv").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_replay_reproduces_outputs(tmp_path):
    d0, d1 = tmp_path / "orig", tmp_path / "replayed"
    assert main(["ber", "--ebno-list", "6", "--frames", "40", "--out", str(d0)]) == 0
    assert main(["replay", str(d0 / "manifest.json"), "--out", str(d1)]) == 0
    assert (d0 / "ber.csv").read_bytes() == (d1 / "ber.csv").read_bytes()
    assert (d0 / "manifest.json").read_bytes() == (d1 / "manifest.json").read_bytes()


def test_replay_missing_manifest(tmp_path):
    assert main(["replay", str(tmp_path / "nope.json")]) == 2
