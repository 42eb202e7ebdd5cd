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

    def __eq__(self, other):
        return (isinstance(other, BinMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.bits == other.bits)

    def __repr__(self):
        return "BinMatrix(%d x %d)" % (self.rows, self.cols)

    def mul_vec(self, x):
        """M * x^T for an n-bit vector x; bit i of the result = parity(row_i & x)."""
        # the parities as base-2 digits, last row first; b"0" reads 0 rows as 0
        return int(b"0" + bytes(0x30 | (row & x).bit_count() & 1
                                for row in reversed(self.bits)), 2)

    def to_bytes(self):
        """Row-major contiguous bit stream, LSB first within each byte."""
        # the rows as base-2 digits, last row first; "0" reads 0 rows as 0
        spec = "0%db" % self.cols
        digits = "".join(format(v, spec) for v in reversed(self.bits))
        return int("0" + digits, 2).to_bytes(
            (self.rows * self.cols + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, rows, cols, data):
        """Inverse of to_bytes; bits past rows*cols are ignored."""
        total = rows * cols
        if not total:
            return cls(rows, cols)
        # exactly total base-2 digits, last row first
        digits = format(int.from_bytes(data, "little") & ((1 << total) - 1),
                        "0%db" % total)
        return cls(rows, cols, [int(digits[p:p + cols], 2)
                                for p in range(total - cols, -1, -cols)])


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
    # last row first, so column j, every cols-th digit from cols-1-j,
    # reads as an int with bit i = row i
    cols = M.cols
    digits = "".join(format(v, "0%db" % cols) for v in reversed(M.bits))
    return BinMatrix(cols, M.rows, [int(digits[cols - 1 - j::cols], 2)
                                    for j in range(cols)])
