"""Bytes in, bytes out: XOR coding and random linear coding on real payloads.

The simulator schedules symbolically, but the coding is real: this demo
attaches random payloads to the batch, pushes them through a scheduled
run, and shows receivers reconstructing the exact original bytes, both
for XOR repair packets (peeling) and GF(2^8) random combinations
(matrix inversion).
"""

import numpy as np

from ncretx import TransmissionMatrix
from ncretx.gf import mat_mul, solve
from ncretx.harness import payload_check

MATRIX = TransmissionMatrix.from_rows([
    [1, 1, 0, 0, 1],
    [0, 1, 0, 1, 0],
    [0, 1, 1, 0, 0],
    [1, 0, 0, 1, 1],
])


def main() -> None:
    print(__doc__)
    rng = np.random.default_rng(5)
    payloads = rng.integers(0, 256, size=(5, 8), dtype=np.uint8)
    print("original payloads (hex, 8 bytes each):")
    for k, row in enumerate(payloads, start=1):
        print(f"  c{k}: {bytes(row).hex()}")

    # XOR route: the relaxed scheduler's first repair is c1^c2
    wire = payloads[0] ^ payloads[1]
    print(f"\ncoded repair c1^c2 on the wire: {bytes(wire).hex()}")
    print(f"receiver holding c2 XORs it out:  {bytes(wire ^ payloads[1]).hex()}"
          f"  == c1? {np.array_equal(wire ^ payloads[1], payloads[0])}")

    # random linear route: three GF(2^8) combinations repair three losses
    coefs = rng.integers(0, 256, size=(3, 5), dtype=np.uint8)
    coded = mat_mul(coefs, payloads)
    # receiver R4 already has c2 and c3 as plain unit rows
    rows = np.zeros((5, 5), dtype=np.uint8)
    rows[0, 1] = rows[1, 2] = 1
    rhs = np.vstack([payloads[1], payloads[2], coded])
    rows[2:] = coefs
    decoded = solve(rows, rhs)
    print("\nrandom-linear receiver inverts a 5x5 GF(2^8) system:")
    ok = all(np.array_equal(decoded[k], payloads[k]) for k in range(5))
    print(f"  all five payloads byte-exact after inversion? {ok}")

    # and the full end-to-end check the test suite runs:
    for name in ("benefit", "rlnc"):
        payload_check(MATRIX, name, payload_len=64, seed=1)
        print(f"end-to-end 64-byte round trip through {name!r}: byte-exact")


if __name__ == "__main__":
    main()
