"""What the benchmark measures: workloads, metric names, units and bounds.

This module is the single source of ``BENCHMARK.json`` (``run.py
--write-spec`` regenerates it) and imports nothing but the standard library,
so the orchestrating process never loads numpy.
"""

from __future__ import annotations

COMMAND = ["python3", "benchmarks/run.py"]
PATHS = ["benchmarks"]
RUN_SECONDS = 25

# One line each on why the workload is in the benchmark.
WORKLOADS = {
    "ber_coded": "RS waterfall: coded AWGN points at 6/7/8 dB, each a different decoder path; rs_decode dominates, so decoder changes show here first",
    "ber_uncoded": "uncoded AWGN points at 4/6/8/10 dB (CLI default); the decoder never runs, so it is the control for decoder changes and the target for channel/modem/sync",
    "sync_curves": "detection curve at p=0.01/0.05/0.1 plus false-alarm curve: framing, RS encode and correlator only; no channel, modem or decoder code runs",
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("frames_per_s", "frames/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("op_ok_ratio", "ratio", "higher", 0.01),
]

# (name, unit, better); busy times and counts are per 2000 nominal frames
PER_LAYER = [
    ("rs.decode.calls", "count", "lower"),
    ("rs.decode.busy_s", "s", "lower"),
    ("rs.decode.us_per_word", "us", "lower"),
    ("rs.decode.dirty_ratio", "ratio", "lower"),
    ("rs.decode.flagged_ratio", "ratio", "lower"),
    ("rs.encode.busy_s", "s", "lower"),
    ("rs.encode.mbit_per_s", "Mbit/s", "higher"),
    ("rs.syndromes.busy_s", "s", "lower"),
    ("framing.build_frames.busy_s", "s", "lower"),
    ("framing.build_frames.useful_bit_ratio", "ratio", "higher"),
    ("scrambler.busy_s", "s", "lower"),
    ("modem.mod.busy_s", "s", "lower"),
    ("modem.demod.busy_s", "s", "lower"),
    ("modem.demod.msym_per_s", "Msym/s", "higher"),
    ("channel.awgn.busy_s", "s", "lower"),
    ("channel.awgn.msym_per_s", "Msym/s", "higher"),
    ("sync.detect.busy_s", "s", "lower"),
    ("sync.detect.scanned_bits", "count", "lower"),
    ("sync.detect.useful_ratio", "ratio", "higher"),
    ("sync.window_scores.busy_s", "s", "lower"),
    ("sync.window_scores.mbit_per_s", "Mbit/s", "higher"),
    ("link.busy_s", "s", "lower"),
    ("link.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def bench_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
