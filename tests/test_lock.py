"""Behaviour lock: sha256 of fixed-seed CSVs and trace narrations.

Refactors must leave every hash here unchanged.  A change that alters the
output on purpose updates the hashes and says why in CHANGES.md.  The
12-receiver trace pins the order of same-slot event lines, which list
receivers in numeric order ("R2" before "R10") for every scheduler.
"""

import hashlib

import pytest

from ncretx import SCHEDULER_NAMES, ChannelParams, sample_matrix
from ncretx.cli import main as cli_main
from ncretx.harness import load_matrix, trace_run

from conftest import DATA_DIR

SIMULATE = ["simulate", "--algorithms", ",".join(SCHEDULER_NAMES) + ",theory",
            "--receivers", "3,12", "--loss", "0.3,0.6", "--batch", "20",
            "--reps", "3", "--seed", "5"]
SIMULATE_SHA = (
    "8adf74e94e212fb0e2c38e0931653484c929c1ab0efa9f1eb47dad0cc8eb97f0")

THEORY = ["theory", "--receivers", "3,12", "--loss", "0.3,0.6", "--batch", "20"]
THEORY_SHA = (
    "0b3591dee3e89680c35b3cdd736395e9741a9eeaf9dcf167007ca53165484dd2")

TRACE_SHA = {
    ("worked", "arq"):
        "d397c2bff0e1cf41b080fcf53f9ab8e9da48c3413961f122e746bb9c0471618d",
    ("worked", "greedy"):
        "ff5d5e2ecf06a03803ef7fef008324686236e8b351e08fd17fc2cb73f7161dea",
    ("worked", "sort-utility"):
        "34903d2b0e577fb243e0992a89b31d6d3f67a8dade8a0c7a9f6e4158dbb4e5e7",
    ("worked", "benefit"):
        "ff1101c1e8fb3c23243f43e9fe78d4648995b5d1fd3eb574373c390301cfd43b",
    ("worked", "rlnc"):
        "e1f897662a370f8ee8fd05a2fbaabdf94e5fbd9a975a9ed25e3f9b7d5d82f96f",
    ("m12", "arq"):
        "c0f05a9e6c2247add49ade0ca9024d71102562d6f76c9c8e3a7b906da0b53908",
    ("m12", "greedy"):
        "ffcead160a1e9d9b06fef2dd89e33b71ae7cf5b2fa3457a9b098b36eb96a64e2",
    ("m12", "sort-utility"):
        "7a7938875eea2ee3b4154c76264eef52535a01ee65138669152c54ce62c6fee5",
    ("m12", "benefit"):
        "6bb2c900df2b33f7f13afd86b9c8674141189051aadfa4957a2cc6f13607378d",
    ("m12", "rlnc"):
        "1065db92509de8607434ce6cf9a4bf5d41e931c288cfc1cce98c03b367582878",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_matrix(which: str):
    if which == "worked":
        return load_matrix(DATA_DIR / "worked_example.txt")
    return sample_matrix(ChannelParams.homogeneous(12, 0.4, seed=3), 10)


def trace_digest(which: str, name: str) -> str:
    lines: list[str] = []
    trace_run(trace_matrix(which), name, seed=1, emit=lines.append)
    return sha256("\n".join(lines).encode())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_csv_locked(tmp_path, capsys, workers):
    out = tmp_path / "sim.csv"
    assert cli_main(SIMULATE + ["--workers", workers, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == SIMULATE_SHA


def test_theory_csv_locked(tmp_path, capsys):
    out = tmp_path / "theory.csv"
    assert cli_main(THEORY + ["--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == THEORY_SHA


@pytest.mark.parametrize("which,name", sorted(TRACE_SHA))
def test_trace_locked(which, name):
    assert trace_digest(which, name) == TRACE_SHA[(which, name)]
