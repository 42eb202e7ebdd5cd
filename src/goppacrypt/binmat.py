"""Dense GF(2) linear algebra on bit-packed rows.

Rows are Python ints, bit j of row i = entry (i, j), so row operations are
single XORs even at n around 2*10^4.  Matrices are values: operations return
new matrices and never mutate inputs.
"""


class BinMatrix:
    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows, cols, bits=None):
        if bits is None:
            bits = [0] * rows
        if len(bits) != rows:
            raise ValueError("row count mismatch")
        mask = (1 << cols) - 1
        self.rows = rows
        self.cols = cols
        self.bits = tuple(b & mask for b in bits)

    def get(self, i, j):
        return (self.bits[i] >> j) & 1

    def row(self, i):
        return self.bits[i]

    def __eq__(self, other):
        return (isinstance(other, BinMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.bits == other.bits)

    def __hash__(self):
        return hash((self.rows, self.cols, self.bits))

    def __repr__(self):
        return "BinMatrix(%d x %d)" % (self.rows, self.cols)

    def mul_vec(self, x):
        """M * x^T for an n-bit vector x; bit i of the result = parity(row_i & x)."""
        # the parities as base-2 digits, last row first; b"0" reads 0 rows as 0
        return int(b"0" + bytes(0x30 | (row & x).bit_count() & 1
                                for row in reversed(self.bits)), 2)

    def to_bytes(self):
        """Row-major contiguous bit stream, LSB first within each byte."""
        total = self.rows * self.cols
        acc = 0
        for i, r in enumerate(self.bits):
            acc |= r << (i * self.cols)
        return acc.to_bytes((total + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, rows, cols, data):
        acc = int.from_bytes(data, "little")
        mask = (1 << cols) - 1
        return cls(rows, cols, [(acc >> (i * cols)) & mask for i in range(rows)])


def rref(M):
    """Reduced row echelon form; returns (R, rank, pivot columns)."""
    work = list(M.bits)
    pivots = []
    rank = 0
    for col in range(M.cols):
        bit = 1 << col
        sel = None
        for i in range(rank, M.rows):
            if work[i] & bit:
                sel = i
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        for i in range(M.rows):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        pivots.append(col)
        rank += 1
        if rank == M.rows:
            break
    return BinMatrix(M.rows, M.cols, work), rank, pivots


def transpose(M):
    """M^T, read off the base-2 digit strings of the rows at C speed."""
    if not (M.rows and M.cols):
        return BinMatrix(M.cols, M.rows)
    # last row first, so column j reads as an int with bit i = row i
    digits = [format(v, "0%db" % M.cols) for v in reversed(M.bits)]
    return BinMatrix(M.cols, M.rows,
                     [int("".join(c), 2) for c in zip(*digits)][::-1])
