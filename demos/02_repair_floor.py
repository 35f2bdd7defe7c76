"""How many repairs does ANY lossless-repair scheme need, at minimum?

Each receiver i loses L_i ~ Binomial(N, p) packets, and every repair
transmission reaches everyone, so no scheme can finish in fewer than
max_i L_i slots.  The distribution of that maximum has a closed form:

    Q_j = prod_i P[L_i <= j] - prod_i P[L_i <= j-1]

This script prints the distribution for a small batch, checks its mean
against brute-force simulation, and shows the resulting lower-bound
curve for the repair ratio.
"""

from ncretx import (
    ChannelParams,
    TheoryParams,
    expected_baseline_retx,
    expected_min_retx,
    q_distribution,
    sample_matrix,
    theory_ratio,
)


def main() -> None:
    print(__doc__)
    params = TheoryParams.homogeneous(receivers=4, batch=10, p=0.3)
    q = q_distribution(params)
    print("M=4 receivers, N=10 packets, p=0.3:")
    for j, qj in enumerate(q):
        bar = "#" * int(round(qj * 120))
        print(f"  Q_{j:<2d} = {qj:8.5f} {bar}")
    print(f"  sum = {q.sum():.12f}")
    analytic = expected_min_retx(params)
    print(f"\nexpected minimum repairs  E[max_i L_i] = {analytic:.4f}")

    # one 4 x 2,000,000 draw, cut into 200k batches of 10 packets
    cells = sample_matrix(ChannelParams.homogeneous(4, 0.3, seed=7), 10 * 200_000).cells
    simulated = cells.reshape(4, -1, 10).sum(axis=2).max(axis=0).mean()
    print(f"simulated over 200k batches              = {simulated:.4f}")

    print(f"\nexpected plain-ARQ repairs = {expected_baseline_retx(params):.4f}")
    print("\nlower-bound repair ratio as the audience grows (N=200, p=0.5):")
    for m in (2, 4, 8, 16, 32):
        r = theory_ratio(TheoryParams.homogeneous(m, 200, 0.5))
        print(f"  M={m:<3d}  floor = {r:.4f}")
    print("\nNo scheduler's ratio curve can dip below this floor; the")
    print("interesting question is which scheduler gets closest.")


if __name__ == "__main__":
    main()
