"""Shared test geometry: the fixture set used by the verification suites.

Builders return fresh Domain objects (evaluator caches live on the
evaluator, not the domain, so sharing would be safe; fresh objects keep
tests independent).  The same shapes ship as JSON files next to this
module for the command line tool; load_domain_file reads that schema.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import GeometryError
from ..geometry.curves import TrigCurve, curve_from_samples
from ..geometry.domain import Domain

_N = 256  # samples for trig fixtures; generous for 5 Fourier modes
_ANGLES = 2.0 * np.pi * np.arange(_N) / _N


def _circle(center=0.0, radius=1.0, n=_N):
    t = np.arange(n) / n
    return TrigCurve(center + radius * np.exp(2j * np.pi * t))


def _ellipse(a, b):
    return TrigCurve(a * np.cos(_ANGLES) + 1j * b * np.sin(_ANGLES))


def _blob(base, modes):
    """r(t) e^{it}, r = base + the sum of ck cos(kt) + sk sin(kt)."""
    r = np.full(_N, float(base))
    for k, ck, sk in modes:
        r += ck * np.cos(k * _ANGLES) + sk * np.sin(k * _ANGLES)
    if np.any(r <= 0):
        raise GeometryError("fourier_blob radius must stay positive")
    return TrigCurve(r * np.exp(1j * _ANGLES))


def disc(center=0.0, radius=1.0, label=None):
    center = complex(center)
    radius = float(radius)
    if label is None:
        label = "B(%g%+gi,%g)" % (center.real, center.imag, radius)
    return Domain(_circle(center, radius), label=label,
                  primitive=("disc", (center, radius)))


def unit_disc():
    return disc(0.0, 1.0, label="unit disc")


def ellipse(a=2.0, b=1.0):
    return Domain(_ellipse(a, b), label="ellipse a=%g b=%g" % (a, b))


def fourier_blob():
    """Smooth 3-mode wobble of the unit circle."""
    return Domain(_blob(1.0, [(2, 0.10, 0.0), (3, 0.0, 0.08), (5, 0.04, 0.0)]),
                  label="fourier blob")


def annulus(r_inner=0.5, r_outer=1.0):
    return Domain(_circle(0.0, r_outer), [_circle(0.0, r_inner)],
                  label="annulus %g<|z|<%g" % (r_inner, r_outer),
                  primitive=("annulus", (0.0, float(r_inner), float(r_outer))))


def disc_with_holes(holes):
    """The unit disc minus round holes, given as (center, radius) pairs;
    the Domain refuses holes that leave the disc or overlap."""
    holes = [(complex(c), float(r)) for c, r in holes]
    return Domain(_circle(), [_circle(c, r) for c, r in holes],
                  label="unit disc minus %s" % ", ".join(
                      "B(%g%+gi,%g)" % (c.real, c.imag, r) for c, r in holes))


def blob_with_hole():
    """The Fourier blob with a round hole off center."""
    outer = fourier_blob().outer
    hole = _circle(0.15 + 0.1j, 0.3)
    return Domain(outer, [hole], label="blob with hole")


def two_disc_pair(kind="symmetric"):
    """Disc pairs for the Solynin/submultiplicativity suites."""
    if kind == "symmetric":
        return disc(-0.5, 1.0), disc(0.5, 1.0)
    if kind == "asymmetric":
        return disc(-0.3, 0.8), disc(0.5, 1.1)
    if kind == "near_tangent":
        return disc(-0.999, 1.0), disc(0.999, 1.0)
    if kind == "nested":
        return disc(0.0, 0.5), disc(0.0, 1.0)
    raise GeometryError("unknown pair kind %r" % (kind,))


def blob_disc_pair():
    """Multiply connected pair: one-hole blob against an overlapping disc.

    The disc overlaps the blob's right lobe but clears the hole by ~0.15,
    so the intersection is simply connected while the union keeps the
    hole.
    """
    return blob_with_hole(), disc(1.25, 0.65)


# -- domain files --------------------------------------------------------

def _curve_from_schema(spec):
    kind = spec.get("type")
    if kind == "disc":
        c = spec.get("center", [0.0, 0.0])
        return _circle(complex(c[0], c[1]), float(spec["radius"]))
    if kind == "ellipse":
        return _ellipse(float(spec.get("a", 2.0)), float(spec.get("b", 1.0)))
    if kind == "fourier_blob":
        return _blob(spec.get("base", 1.0), spec.get("modes", []))
    if kind == "samples":
        pts = np.array([complex(p[0], p[1]) for p in spec["points"]])
        return curve_from_samples(pts)
    raise GeometryError("unknown curve type %r in domain file" % (kind,))


def domain_from_dict(data):
    outer = _curve_from_schema(data)
    holes = [_curve_from_schema(h) for h in data.get("holes", [])]
    label = data.get("label", data.get("type", "domain"))
    primitive = None
    if data["type"] == "disc" and not holes:
        c = data.get("center", [0.0, 0.0])
        primitive = ("disc", (complex(c[0], c[1]), float(data["radius"])))
    elif data["type"] == "disc" and len(holes) == 1 \
            and data.get("holes")[0].get("type") == "disc":
        c = data.get("center", [0.0, 0.0])
        hc = data["holes"][0].get("center", [0.0, 0.0])
        if abs(complex(*c) - complex(*hc)) < 1e-12:
            primitive = ("annulus", (complex(*c),
                                     float(data["holes"][0]["radius"]),
                                     float(data["radius"])))
    return Domain(outer, holes, label=label, primitive=primitive)


def load_domain_file(path):
    with open(path) as fh:
        data = json.load(fh)
    try:
        return domain_from_dict(data)
    except KeyError as exc:
        raise GeometryError("domain file %s is missing field %s" % (path, exc))
