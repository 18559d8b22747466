import contextlib
import copy
import csv
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_eye_rejects_non_finite_ebno(tmp_path, capsys):
    for ebno in ("nan", "inf", "-inf"):
        assert main(["eye", f"--ebno={ebno}", "--out", str(tmp_path)]) == 2
        assert "--ebno must be a finite number" in capsys.readouterr().err


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


def _edited_manifest(tmp_path, argv, edit) -> Path:
    orig = tmp_path / "orig"
    assert main(argv + ["--out", str(orig)]) == 0
    path = orig / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return path


def _replay_is_usage_error(path: Path, tmp_path, capsys) -> None:
    capsys.readouterr()
    assert main(["replay", str(path), "--out", str(tmp_path / "replayed")]) == 2
    assert "error:" in capsys.readouterr().err


def test_replay_rejects_zero_write_scale(tmp_path, capsys):
    path = _edited_manifest(tmp_path, ["fifo", "--frames", "20"],
                            lambda m: m["params"].update(write_scale="0"))
    _replay_is_usage_error(path, tmp_path, capsys)


def test_replay_rejects_missing_params(tmp_path, capsys):
    path = _edited_manifest(tmp_path, ["preamble"], lambda m: m.pop("params"))
    _replay_is_usage_error(path, tmp_path, capsys)


def test_replay_rejects_negative_frames(tmp_path, capsys):
    path = _edited_manifest(tmp_path, ["ber", "--ebno-list", "6", "--frames", "20"],
                            lambda m: m["params"].update(frames=-5))
    _replay_is_usage_error(path, tmp_path, capsys)


def test_ber_one_frame_rejected(tmp_path):
    # one frame can never acquire, so this is a usage error, not a failed run
    assert main(["ber", "--frames", "1", "--out", str(tmp_path)]) == 2


# SHA-256 of every file one run of each subcommand writes, recorded before
# the options were declared in one place; the bytes must not change
PINNED_RUNS = [
    (["ber", "--ebno-list", "5,7", "--frames", "30", "--coding", "on", "--seed", "3"], {
        "ber.csv": "7d8e554b8e09eb210969ef6d2cca7be69a686f162b1ea509e52a28795e725a76",
        "manifest.json": "2905c561b1803ff4accfa79076a17fb3fdd29120a3d8098f14aff090effbed22",
    }),
    (["sync", "--mode", "detection", "--p-list", "0.01,0.05", "--trials", "300", "--threshold", "24"], {
        "sync_detection.csv": "496881ab5884c61eaba9a01e7f538550db7a79408eb8d73dceaac7befaffa2ba",
        "manifest.json": "98b069b2e03d54f0f14fec94d3ae6e7d943b234707435960fc8bf6b663c348bf",
    }),
    (["sync", "--mode", "false-alarm", "--frames", "40", "--seed", "5"], {
        "sync_false_alarm.csv": "ec1639a45ad868c21386d16e9c6ebc1f5ebc953c1e82e0c98592ab5bc1a4b3a8",
        "manifest.json": "fb572daf2a216957ccfd72199da60b78f87479f7a2fca1fae60dcb711734a7fb",
    }),
    (["preamble", "--preamble", "DEADBEEF"], {
        "preamble_mcor.csv": "5a1253226aa7d7cf350c1f781ee60af3e5a29241a61970756a22fb3b6b4f72bd",
        "preamble_best.csv": "a8d6c5a2b6ebe284dc5e6f5ba7ca33ddf2bf5a0aced7ddb33fb9eabf21c68c50",
        "manifest.json": "e0b2f96fc714cbf1c18440d938b43558e41fb50aeaee9afe2a449c7a92b281cc",
    }),
    (["eye", "--symbols", "64", "--ebno", "6", "-L", "4", "--seed", "2"], {
        "eye.csv": "053ee2986e6dd9d4289f025d54970deab16a1c00597b99c5e0e1ae104db48aed",
        "manifest.json": "2b0ba96c4a5cd624babc3bb1d90d62e6f300e026629234320d35abdc6d0ca1ce",
    }),
    (["fifo", "--frames", "300", "--write-scale", "101/100", "--depth", "64"], {
        "fifo.json": "5ee40ed654d951016ce474e25331eaab8872d472bc9850af2c5b742a335621b3",
        "manifest.json": "b4cd9256c00948234653de67ca87532306c988d40d6405720a5ab4e0c657374a",
    }),
]


def _hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("argv, expected", PINNED_RUNS, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(PINNED_RUNS)])
def test_outputs_and_replay_are_pinned(tmp_path, argv, expected):
    run, replayed = tmp_path / "run", tmp_path / "replayed"
    assert main(argv + ["--out", str(run)]) == 0
    assert _hashes(run) == expected
    assert main(["replay", str(run / "manifest.json"), "--out", str(replayed)]) == 0
    assert _hashes(replayed) == expected


def test_replay_accepts_params_written_as_option_text(tmp_path):
    # a manifest value is valid exactly when its option text is
    argv = ["ber", "--ebno-list", "6", "--frames", "20", "--coding", "on"]
    assert main(argv + ["--out", str(tmp_path / "fresh")]) == 0
    path = _edited_manifest(tmp_path, argv, lambda m: m["params"].update(coding="on", threshold="28", ebno_list="6"))
    assert main(["replay", str(path), "--out", str(tmp_path / "replayed")]) == 0
    assert _hashes(tmp_path / "replayed") == _hashes(tmp_path / "fresh")


# small valid runs of every subcommand; the edits below start from their manifests
FUZZ_RUNS = {
    "ber": ["ber", "--ebno-list", "9", "--frames", "3"],
    "detection": ["sync", "--mode", "detection", "--p-list", "0.05", "--trials", "20"],
    "false-alarm": ["sync", "--mode", "false-alarm", "--frames", "3"],
    "preamble": ["preamble"],
    "eye": ["eye", "--symbols", "16", "-L", "2"],
    "fifo": ["fifo", "--frames", "3", "--depth", "8"],
}
# a value out of range for each parameter
OUT_OF_RANGE = {
    "ebno_list": [float("nan")], "frames": 1, "coding": "maybe", "threshold": 33, "preamble": "AABB",
    "extra_k": 256, "seed": -1, "mode": "both", "p_list": [0.7], "trials": 0, "oversampling": 1,
    "symbols": 7, "ebno": float("inf"), "depth": 1, "write_scale": "0", "read_scale": "-1/2",
}


@pytest.fixture(scope="module")
def fuzz_manifests(tmp_path_factory):
    manifests = {}
    for name, argv in FUZZ_RUNS.items():
        out = tmp_path_factory.mktemp(name)
        assert main(argv + ["--out", str(out)]) == 0
        manifests[name] = json.loads((out / "manifest.json").read_text())
    return manifests


def _retyped(value):
    return st.sampled_from([str(value), [value], True, 1.5, {"value": value}])


@st.composite
def _edited(draw, manifests):
    manifest = copy.deepcopy(manifests[draw(st.sampled_from(sorted(manifests)))])
    for _ in range(draw(st.integers(1, 3))):
        # one edit, at the top level or inside params
        target = manifest["params"] if isinstance(manifest.get("params"), dict) and draw(st.booleans()) else manifest
        if not target:
            break
        key = draw(st.sampled_from(sorted(target)))
        edit = draw(st.sampled_from(["drop", "null", "retype", "out_of_range"]))
        if edit == "drop":
            del target[key]
        elif edit == "null":
            target[key] = None
        elif edit == "retype":
            target[key] = draw(_retyped(target[key]))
        elif target is manifest.get("params") and key in OUT_OF_RANGE:
            target[key] = OUT_OF_RANGE[key]
    return manifest


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_manifests_replay_or_are_usage_errors(fuzz_manifests, tmp_path, data):
    manifest = data.draw(_edited(fuzz_manifests))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["replay", str(path), "--out", str(tmp_path / "replayed")])
    assert code in (0, 2), manifest
