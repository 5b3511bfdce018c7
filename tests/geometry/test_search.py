"""The columnar pair search and via landings against plain-loop references."""

import random

import numpy as np
import pytest

from repro.geometry import Point, Rect, Via, Wire
from repro.geometry.layout import ShapeColumns
from repro.geometry.search import close_pairs, first_seen


def _reference_pairs(rects, margin, group):
    """The plane sweep the verification engines used: per group in order
    of first appearance, rows stably sorted by x0, each compared with the
    rows after it until one starts beyond its reach."""
    out = []
    for g in dict.fromkeys(group):
        rows = sorted((i for i in range(len(rects)) if group[i] == g),
                      key=lambda i: rects[i].x0)
        for k, i in enumerate(rows):
            a = rects[i]
            for j in rows[k + 1:]:
                b = rects[j]
                if b.x0 > a.x1 + margin[i]:
                    break
                if b.y0 - a.y1 <= margin[i] and a.y0 - b.y1 <= margin[i]:
                    out.append((i, j))
    return out


def _random_rects(rng, n):
    rects = []
    for _ in range(n):
        x0, y0 = rng.randrange(0, 2000), rng.randrange(0, 2000)
        if rng.random() < 0.5:  # long horizontal or tall vertical bars
            rects.append(Rect(x0, y0, x0 + rng.randrange(0, 1500), y0 + rng.randrange(0, 30)))
        else:
            rects.append(Rect(x0, y0, x0 + rng.randrange(0, 30), y0 + rng.randrange(0, 1500)))
    return rects


@pytest.mark.parametrize("seed", range(6))
def test_close_pairs_matches_the_plane_sweep(seed):
    rng = random.Random(seed)
    rects = _random_rects(rng, 300)
    # Ties on x0 must keep input order: repeat some corners.
    rects += [Rect(r.x0, r.y0 + 5, r.x1, r.y1 + 5) for r in rects[:20]]
    # Groups a/b hold horizontal bars (swept by y), c/d vertical ones.
    labels = [rng.choice("ab" if r.width > r.height else "cd") for r in rects]
    group = first_seen(np.array([ord(c) for c in labels]))
    margin = np.array([{"a": 0, "b": 7, "c": 40, "d": 0}[c] for c in labels])
    x0, y0, x1, y1 = np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects]).T
    a, b = close_pairs(x0, y0, x1, y1, margin=margin, group=group)
    assert list(zip(a.tolist(), b.tolist())) == _reference_pairs(rects, margin, labels)


def test_close_pairs_empty_and_single():
    empty = np.zeros(0, dtype=np.int64)
    assert [len(k) for k in close_pairs(empty, empty, empty, empty)] == [0, 0]
    one = np.array([5])
    assert [len(k) for k in close_pairs(one, one, one + 1, one + 1)] == [0, 0]


def test_via_landings_match_point_in_rect():
    rng = random.Random(3)
    nets, layers = ["a", "b"], ["M1", "M2", "M3"]
    wires = [
        Wire(rng.choice(nets), rng.choice(layers), r)
        for r in _random_rects(rng, 200)
    ]
    vias = [
        Via(rng.choice(nets), lo, up, Point(rng.randrange(0, 2500), rng.randrange(0, 2500)))
        for lo, up in [("M1", "M2"), ("M2", "M3"), ("M1", "M9")] * 60
    ]
    sides, hits = ShapeColumns.from_shapes(wires, vias).via_landings()
    expected = sorted(
        (2 * v + k, w)
        for v, via in enumerate(vias)
        for k, layer in enumerate((via.lower_layer, via.upper_layer))
        for w, wire in enumerate(wires)
        if wire.net == via.net and wire.layer == layer
        and wire.rect.contains_point(via.position)
    )
    assert sorted(zip(sides.tolist(), hits.tolist())) == expected
    assert expected  # the random layout does land vias
