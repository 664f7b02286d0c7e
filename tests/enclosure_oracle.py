"""Independent scalar interval enclosures of coefficient expressions.

These are the enclosure rules the library used when it enclosed one
expression tree at a time in Python ``math``: every end is a Python float,
and each node kind has its own rule (Moore, *Interval Analysis*, 1966).  The
library now runs the same rules in numpy, on single trees and on the
stacked group trees of ``ExprStack`` alike; agreement between the two is
checked with ``==`` on every end.

It imports nothing from the library on purpose.  Nodes are read by their
class name and their field names, so any tree of the expression language
can be enclosed here.
"""

import math

# numpy's exp and libm's are each within one ulp of the true value, so they
# may differ by two, and by three where an ulp doubles between them
EXP_ULPS = 4


def _mul(x, y):
    # a zero factor zeroes any value, so 0 * inf counts as 0
    products = [0.0 if a == 0.0 or b == 0.0 else a * b for a in x for b in y]
    return min(products), max(products)


def _exp(v):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _exp_enclosure(lo, hi):
    """``exp`` of the ends, each moved ``EXP_ULPS`` ulps outward (not below 0)."""
    a, b = _exp(lo), _exp(hi)
    for _ in range(EXP_ULPS):
        a, b = math.nextafter(a, 0.0), math.nextafter(b, math.inf)
    return a, b


def _periodic(fn, peak):
    """Enclosure rule of ``fn``, a sine shifted to peak at ``peak`` mod 2 pi."""

    def enclose(lo, hi):
        if not hi - lo < 2 * math.pi:  # a full period, or an unbounded argument
            return -1.0, 1.0
        # the first peak and the first trough at or after lo
        top = peak + 2 * math.pi * math.ceil((lo - peak) / (2 * math.pi))
        bottom = top - math.pi if top - math.pi >= lo else top + math.pi
        ends = (fn(lo), fn(hi))
        return (-1.0 if bottom <= hi else min(ends), 1.0 if top <= hi else max(ends))

    return enclose


def _abs(lo, hi):
    return max(lo, -hi, 0.0), max(-lo, hi)


_UNARY = {
    "Sin": _periodic(math.sin, math.pi / 2),
    "Cos": _periodic(math.cos, 0.0),
    "Abs": _abs,
    "Exp": _exp_enclosure,
    "Neg": lambda lo, hi: (-hi, -lo),
}


def enclose(e):
    """``(lo, hi)`` with ``lo <= e(t) <= hi`` for every real t."""
    kind = type(e).__name__
    if kind == "TimeVar":
        return -math.inf, math.inf
    if kind == "Const":
        return e.value, e.value
    if kind in _UNARY:
        return _UNARY[kind](*enclose(e.arg))
    if kind == "Scale":
        return _mul((e.factor, e.factor), enclose(e.arg))
    if kind == "Affine":
        # slope * arg + offset, enclosed as the sum of a scale and a constant
        (a, b), (c, d) = _mul((e.slope, e.slope), enclose(e.arg)), (e.offset, e.offset)
        return a + c, b + d
    if kind == "Add":
        (a, b), (c, d) = enclose(e.left), enclose(e.right)
        return a + c, b + d
    if kind == "Mul":
        return _mul(enclose(e.left), enclose(e.right))
    raise TypeError(f"no enclosure rule for {kind}")


def sup_inf(e):
    """``(sup, inf)`` of ``|e(t)|`` over every real t."""
    inf_abs, sup_abs = _abs(*enclose(e))
    return sup_abs, inf_abs
