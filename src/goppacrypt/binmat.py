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


# columns per strip of rref, whose table has 2^STRIP entries
STRIP = 6


def rref(M):
    """Reduced row echelon form; returns (R, rank, pivot columns).

    The Method of Four Russians (Albrecht, Bard and Hart, ACM TOMS 2010)
    on strips of STRIP consecutive columns: the strip's pivots, reduced
    among themselves, fill a table of all their sums indexed by the
    strip's bits, which clears the strip from every other row with one
    lookup and one XOR.  A column with no pivot is zero in every row
    past the pivots, and the table ignores its bit.  A table costs
    2^STRIP XORs and saves a pass over the rows, so the best width grows
    like log2 of the row count: 6 was the fastest at the 108 rows of a
    (9, 256, 12) key, and 8 is 20% faster at 550 rows.  The reduced form
    is unique, so R, rank and pivots are those of Gauss-Jordan.
    """
    work = list(M.bits)
    pivots = []
    rank = 0
    for col in range(0, M.cols, STRIP):
        first = rank
        found = []  # (bit, row) of the strip's pivots, reduced among them
        for c in range(col, min(col + STRIP, M.cols)):
            bit = 1 << c
            for i in range(rank, M.rows):
                v = work[i]
                for b, row in found:
                    if v & b:
                        v ^= row
                work[i] = v  # reduced once is reduced for good
                if v & bit:
                    break
            else:
                continue
            work[rank], work[i] = v, work[rank]
            found = [(b, row ^ v if row & bit else row) for b, row in found]
            found.append((bit, v))
            pivots.append(c)
            rank += 1
        if not found:
            continue
        work[first:rank] = [row for _, row in found]
        rows = dict(found)
        table = [0]  # table[s] clears the strip's pivots where s has bits
        for c in range(col, min(col + STRIP, M.cols)):
            row = rows.get(1 << c)
            table += [t ^ row for t in table] if row else table
        mask = len(table) - 1
        work[:first] = [v ^ table[v >> col & mask] for v in work[:first]]
        work[rank:] = [v ^ table[v >> col & mask] for v in work[rank:]]
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
