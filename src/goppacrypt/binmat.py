"""Dense GF(2) linear algebra on bit-packed rows.

Rows are Python ints, bit j of row i = entry (i, j), so row operations are
single XORs even at n around 2*10^4.  Matrices are values: operations return
new matrices and never mutate inputs; a matrix masks its rows to its width
only when one min/max pass finds a row outside it.  transpose is the one
bit transpose, both ways (values to bit planes and back), plane_mul
multiplies values on their planes, and the width of rref's column strips
follows the row count.  Values of at most 16 bits come back from byte
lanes, one per 8 planes, by one step (_values) that transpose and the
column route of from_bytes share: from_bytes turns each column's strided
digits straight into its bit of a byte per row, with no int per column.
"""

import struct


class BinMatrix:
    __slots__ = ("rows", "cols", "bits")

    def __init__(self, rows, cols, bits=None):
        if bits is None:
            bits = [0] * rows
        if len(bits) != rows:
            raise ValueError("row count mismatch")
        mask, bits = (1 << cols) - 1, tuple(bits)
        if bits and (min(bits) < 0 or max(bits) > mask):  # else a no-op
            bits = tuple([b & mask for b in bits])
        self.rows = rows
        self.cols = cols
        self.bits = bits

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
        """Row-major contiguous bit stream, LSB first within each byte.

        Its digits, last row first, hold column j at cols - 1 - j mod
        cols.  Rows of at most 16 bits go in column by column, one
        strided slice each, when there are more than six rows a column,
        as a column costs about six rows; other rows go one by one."""
        rows, cols = self.rows, self.cols
        if 0 < 6 * cols < rows and cols <= 16:
            spec, digits = "0%db" % rows, bytearray(rows * cols)
            for j, col in enumerate(transpose(self.bits, cols)):
                digits[cols - 1 - j::cols] = format(col, spec).encode()
        else:  # "0" reads 0 digits as 0
            spec = "0%db" % cols
            digits = "0" + "".join(format(v, spec) for v in self.bits[::-1])
        return int(digits, 2).to_bytes((rows * cols + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, rows, cols, data):
        """Inverse of to_bytes, on the same two routes; bits past
        rows*cols are ignored.  On the column route, column j's strided
        digits, last row first, become bit j of a byte per row, as in
        transpose's route for at most 16 rows."""
        total = rows * cols
        if not total:
            return cls(rows, cols)
        # exactly total base-2 digits, last row first
        digits = format(int.from_bytes(data, "little") & ((1 << total) - 1),
                        "0%db" % total).encode()
        if 0 < 6 * cols < rows and cols <= 16:
            lanes = [0, 0]
            for j in range(cols):
                lanes[j >> 3] |= int.from_bytes(
                    digits[cols - 1 - j::cols].translate(_BITS[j & 7]), "big")
            return cls(rows, cols, _values(lanes, cols, rows))
        return cls(rows, cols, [int(digits[p:p + cols], 2)
                                for p in range(total - cols, -1, -cols)])


def rref(M):
    """Reduced row echelon form; returns (R, rank, pivot columns).

    The Method of Four Russians (Albrecht, Bard and Hart, ACM TOMS 2010)
    on strips of w consecutive columns: the strip's pivots, reduced
    among themselves, fill a table of all their sums indexed by the
    strip's bits, which clears the strip from every other row with one
    lookup and one XOR.  A column with no pivot is zero in every row
    past the pivots, and the table ignores its bit.  A table costs 2^w
    XORs and saves a pass over the rows, so w = min(8, max(6,
    rows.bit_length() - 2)) grows like log2 of the row count.  Best of 9
    in ms at w = 6/7/8 on key tables (2-CPU x86-64, Python 3.11):
    108 x 256 0.60/0.62/0.65, 160 x 256 1.14/1.16/1.19, 352 x 1024
    4.84/4.56/4.63, 550 x 1024 9.49/8.78/8.53, 768 x 1024 18.2/16.6/15.2:
    the rule's w is the fastest at each (within 2% of it in noisier runs).
    The reduced form is unique, so R, rank and pivots are Gauss-Jordan's.
    """
    strip = min(8, max(6, M.rows.bit_length() - 2))
    work = list(M.bits)
    pivots = []
    rank = 0
    for col in range(0, M.cols, strip):
        first = rank
        found = []  # (bit, row) of the strip's pivots, reduced among them
        for c in range(col, min(col + strip, M.cols)):
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
        for c in range(col, min(col + strip, M.cols)):
            row = rows.get(1 << c)
            table += [t ^ row for t in table] if row else table
        mask = len(table) - 1
        work[:first] = [v ^ table[v >> col & mask] for v in work[:first]]
        work[rank:] = [v ^ table[v >> col & mask] for v in work[rank:]]
        if rank == M.rows:
            break
    return BinMatrix(M.rows, M.cols, work), rank, pivots


# byte -> ASCII "0"/"1" of its bit b, and ASCII "0"/"1" -> 0 or 1 << b
_DIGITS = tuple(bytes(0x30 | v >> b & 1 for v in range(256))
                for b in range(8))
_BITS = tuple(bytes.maketrans(b"01", bytes((0, 1 << b))) for b in range(8))


def transpose(rows, cols):
    """The cols columns of the matrix with these rows, as a list: bit i
    of column j is bit j of rows[i], so m-bit values give m bit planes,
    and m <= 16 planes give the values back: each row's digits become
    its bit of a byte per column, in two byte lanes.  Past 16 rows, each
    column is one strided byte lane of the packed rows, read as digits."""
    if not rows:
        return [0] * cols
    if len(rows) <= 16:  # a row's digits run from column cols - 1 down
        spec, lanes = "0%db" % cols, [0, 0]
        for i, v in enumerate(rows):
            lanes[i >> 3] |= int.from_bytes(
                format(v, spec).encode().translate(_BITS[i & 7]), "big")
        return _values(lanes, len(rows), cols)
    # the rows little-endian, last row first, as int(..., 2) reads
    # digits; byte b of a row holds columns 8b to 8b + 7
    size = max(2, cols + 7 >> 3)
    raw = (struct.pack("<%dH" % len(rows), *reversed(rows)) if size == 2
           else b"".join(v.to_bytes(size, "little") for v in reversed(rows)))
    return [int(raw[j >> 3::size].translate(_DIGITS[j & 7]), 2)
            for j in range(cols)]


def _values(lanes, planes, count):
    """The count values of at most 16 planes held as byte lanes: bit i of
    value t is bit i & 7 of byte t of lanes[i >> 3]."""
    if planes <= 8:
        return list(lanes[0].to_bytes(count, "little"))
    pairs = bytearray(2 * count)
    pairs[::2], pairs[1::2] = (v.to_bytes(count, "little") for v in lanes)
    return list(struct.unpack("<%dH" % count, pairs))


def plane_mul(a, b, modulus):
    """Pointwise product of GF(2^m) values on m bit planes each: m^2 ANDs
    into 2m - 1 planes, the high ones folded down by the modulus taps."""
    m, out = len(a), [0] * (2 * len(a) - 1)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            out[i + j] ^= p & q
    taps = [t for t in range(m) if modulus >> t & 1]
    for k in range(2 * m - 2, m - 1, -1):
        for t in taps:
            out[k - m + t] ^= out[k]
    return out[:m]
