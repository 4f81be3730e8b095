"""The two-element multiplicative group {+1, -1}."""


class Z2(int):
    """An element of the multiplicative group {+1, -1}.

    Behaves like the underlying int (so ``Z2(-1) == -1``) but stays closed
    under multiplication with other group elements.
    """

    __slots__ = ()

    def __new__(cls, value):
        v = int(value)
        if v not in (1, -1):
            raise ValueError(f"Z2 element must be +1 or -1, got {value!r}")
        return super().__new__(cls, v)

    def __mul__(self, other):
        return Z2(int(self) * int(other))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Z2({int(self):+d})"


PLUS = Z2(1)
MINUS = Z2(-1)


def z2_product(factors) -> Z2:
    """Product of an iterable of group elements (empty product is +1),
    taken on their ints and checked once, at the end."""
    out = 1
    for f in factors:
        out *= int(f)
    return Z2(out)
