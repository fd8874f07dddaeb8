"""Exception hierarchy for the escobar package."""

from __future__ import annotations

import decimal
import math
import operator
import sys


class EscobarError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(EscobarError, ValueError):
    """A numeric or combinatorial parameter is out of range (k < 1, n < 3, ...)."""


def _integer(name: str, value, least: int) -> int:
    """The count ``value`` as an int by ``operator.index``.  A bool, a value
    that is not integral, or one below ``least`` raises
    :class:`InvalidParameterError` naming ``name``."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value >= least:
                return value
            word = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
            raise InvalidParameterError(f"{name} must be {word}, got {_shown(value)}")
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def _positive(name: str, value) -> float:
    """The positive real ``value`` as a float.  A bool, or a value that is
    not above 0, raises :class:`InvalidParameterError` naming ``name``; written
    as "not >" so that NaN, which passes every "<=", is refused, and a
    ``Decimal`` NaN, which signals when compared, is refused the same way.
    So is a value that is no real number (:func:`_not_real`), one past the
    float range (:func:`_float`) and one so small that it rounds to 0.0."""
    try:
        positive = bool(value > 0)
    except (TypeError, ValueError):  # ValueError: the truth of an array
        raise _not_real(name, value) from None
    except decimal.InvalidOperation:
        positive = False
    if isinstance(value, bool) or not positive:
        raise InvalidParameterError(f"{name} must be positive, got {_shown(value)}")
    x = _float(name, value)
    if x == 0.0:
        raise InvalidParameterError(f"{name} must be positive as a float, got {_shown(value)}")
    return x


def _shown(value) -> str:
    """``str(value)`` for a refusal, or, for an int or ``Fraction`` with a
    term past the 4 300-digit limit of ``str``, its sign and magnitude from
    ``math.log10``, such as ``-1e+5000``, without writing out the digits."""
    try:
        return str(value)
    except ValueError:
        e = math.log10(abs(value.numerator)) - math.log10(value.denominator)
        return f"{'-' if value < 0 else ''}{10 ** (e % 1):.6g}e{math.floor(e):+d}"


def _finite(name: str, value) -> float:
    """The finite real ``value`` as a float.  A bool, NaN or an infinity
    raises :class:`InvalidParameterError` naming ``name``, and so does a
    value that is no real number (:func:`_not_real`) or one past the float
    range (:func:`_float`).  A signaling ``Decimal`` NaN, which has no float
    value, is not finite."""
    try:
        finite = math.isfinite(value)
    except TypeError:
        raise _not_real(name, value) from None
    except OverflowError:
        finite = True  # past the float range, which _float refuses
    except ValueError:
        finite = False
    if isinstance(value, bool) or not finite:
        raise InvalidParameterError(f"{name} must be finite, got {value}")
    return _float(name, value)


def _float(name: str, value) -> float:
    """``float(value)`` for a real ``value`` that compares as a number.  An
    int or ``Fraction`` past the float range, whose conversion overflows,
    and an array, which has no float value, are refused by name."""
    try:
        return float(value)
    except OverflowError:
        # not quoted: an int of more than 4300 digits has no str
        limit = f"{sys.float_info.max:.6g}"
        raise InvalidParameterError(f"{name} must be at most {limit} in magnitude") from None
    except TypeError:
        raise _not_real(name, value) from None


def _not_real(name: str, value) -> InvalidParameterError:
    """The refusal of a value that does not compare with 0 or has no
    float value, such as a string, None or a NumPy array.  Every real
    number does: int, float, NumPy scalars, ``Fraction`` and ``Decimal``."""
    return InvalidParameterError(f"{name} must be a real number, got {value!r}")


class InvalidGeometryError(EscobarError, ValueError):
    """A domain or region description is malformed: open chain, self-intersecting
    boundary, chord leaving the domain, overlapping regions, and so on."""


class NotApplicableError(EscobarError):
    """A closed-form routine was asked about a domain outside its scope
    (e.g. an exact regular-polygon value for a non-regular domain)."""


class ConstructionFailedError(EscobarError):
    """A construction could not produce a valid tuple with the given
    parameters (legs overrunning an edge, stripes taller than the box, ...)."""
