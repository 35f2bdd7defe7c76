"""The worked example: one 4x5 loss pattern, five repair strategies.

Four receivers heard a batch of five packets over a lossy channel; the
grid below marks every lost cell with a 1.  Watch how each scheduler
clears the same ten holes with very different transmission counts and
decode delays.
"""

from ncretx import SCHEDULER_NAMES, TransmissionMatrix, run_metrics, run_scheduler

MATRIX = TransmissionMatrix.from_rows([
    [1, 1, 0, 0, 1],   # R1 missed c1, c2, c5
    [0, 1, 0, 1, 0],   # R2 missed c2, c4
    [0, 1, 1, 0, 0],   # R3 missed c2, c3
    [1, 0, 0, 1, 1],   # R4 missed c1, c4, c5
])


def main() -> None:
    print(__doc__)
    print(MATRIX.format())
    print("packet utilities cu_k:", MATRIX.cells.sum(axis=0).tolist())
    print()

    baseline = run_scheduler("arq", MATRIX)
    for name in SCHEDULER_NAMES:
        result = run_scheduler(name, MATRIX, seed=1)
        m = run_metrics(result, baseline)
        repairs = " ".join(str(cp) for cp in result.schedule.repairs)
        print(f"{name:>12}: {m.retransmissions} repairs "
              f"(ratio {m.ratio:.2f} vs plain ARQ), "
              f"mean time to decode {m.ttd_mean:.2f} slots")
        print(f"{'':>14}repair packets: {repairs or '-'}")
    print()
    print("The relaxed-rule scheduler repairs everything in 3 transmissions;")
    print("its first coded packet goes out before the batch even finishes,")
    print("which is where the latency win comes from.")


if __name__ == "__main__":
    main()
