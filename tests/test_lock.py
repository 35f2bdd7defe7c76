"""Behaviour lock: sha256 of fixed-seed CSVs and trace narrations.

Refactors must leave every hash here unchanged.  A change that alters the
output on purpose updates the hashes and says why in CHANGES.md.  The
12-receiver trace pins the order of same-slot event lines, which list
receivers in numeric order ("R2" before "R10") for every scheduler.
``BENEFIT_RECORD_SHA`` pins benefit's whole record on random matrices:
schedule, gate audit, and each receiver's recovery order and sources.
``XOR_RECORD_SHA`` pins the same record, less the audit, for arq, greedy
and sort-utility.
"""

import hashlib

import numpy as np
import pytest

from ncretx import (SCHEDULER_NAMES, ChannelParams, baseline_arq, benefit, greedy_nc,
                    sample_matrix, sort_by_utility)
from ncretx.cli import main as cli_main
from ncretx.harness import load_matrix, trace_run

from conftest import DATA_DIR, benefit_record, held_record, random_matrix, sent_record

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

BENEFIT_RECORD_SHA = (
    "8e921fd6746e3b2e30efcb867760d676bd51d2c323f8f890888c910d1344cee3")

XOR_RECORD_SHA = (
    "d98907f0d6e7da1084613b80e38ac89c18b8f1eae1811636ec74cce6f17ccc9c")


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


def test_benefit_record_locked():
    rng = np.random.default_rng(13)
    lines = [benefit_record(benefit(random_matrix(rng, max_receivers=20, max_batch=40)))
             for _ in range(300)]
    assert sha256("\n".join(lines).encode()) == BENEFIT_RECORD_SHA


def test_strict_rule_record_locked():
    rng = np.random.default_rng(17)
    lines = []
    for _ in range(400):
        mat = random_matrix(rng, max_receivers=30, max_batch=60)
        for scheduler in (baseline_arq, greedy_nc, sort_by_utility):
            result = scheduler(mat)
            lines.append(f"{result.algorithm} {sent_record(result)} / {held_record(result)}")
    assert sha256("\n".join(lines).encode()) == XOR_RECORD_SHA
