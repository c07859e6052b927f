"""Seeded synthetic wide network, emitted as a JSON-ready config dict.

The network is a directed ring over ``n`` agents plus ``extra`` random
in-edges per agent, so it is strongly connected and has ``n * (extra + 1)``
edges. Every edge carries its own ``fn`` record, so loading the config
through ``tcconsensus.app.system_from_dict`` gives every edge its own
function object, as a user's JSON config does.

The catalog is chosen so the expected verdict is ``Consensus`` and the ray
search has to run:

- saturation to [-1, 1], two interval projections whose fixed sets contain
  [-1, 1], and identity gated to [-2, 2] all fix [-1, 1];
- a piecewise-linear identity on [-1, 1] with left tail slope 0 and right
  tail slope -1.5 breaks the unit chord-slope sector, so classification
  falls through to the admissible-ray search.

The rays box [-1, 1], k1 = -1/64, k2 = -2 (with an anchor inside the box)
bracket every edge on the whole half-lines, not only inside the sampled
horizon: the left tail is flat and the right tail (slope -1.5) stays above
the right ray (slope -2). A left tail of -0.25 would cross the left ray near
x = -9.4, outside the horizon the classifier samples, so it is not used.
"""

from __future__ import annotations

import random

CATALOG = (
    {"variant": "saturation", "lo": -1.0, "hi": 1.0},
    {"variant": "interval_projection", "p": -1.0, "q": 1.0, "rho": 0.5},
    {"variant": "interval_projection", "p": -1.5, "q": 1.5, "rho": 0.25},
    {"variant": "gated_identity", "lo": -2.0, "hi": 2.0},
    {
        "variant": "piecewise_linear",
        "knots": [[-1.0, -1.0], [1.0, 1.0]],
        "left_slope": 0.0,
        "right_slope": -1.5,
    },
)


def wide_network(seed: int, n: int = 200, extra: int = 9) -> dict:
    """System record (``weights`` plus per-edge ``constraints``) for a ring
    of ``n`` agents with ``extra`` distinct random in-edges per agent."""
    if n < extra + 2:
        raise ValueError(f"need n >= extra + 2, got n={n}, extra={extra}")
    rng = random.Random(seed)
    # equal shares of the catalog, placed at random: the seed moves the
    # shapes around but not how many edges of each shape there are
    edges = n * (extra + 1)
    shapes = [CATALOG[k % len(CATALOG)] for k in range(edges)]
    rng.shuffle(shapes)
    weights = [[0.0] * n for _ in range(n)]
    constraints = []
    for i in range(n):
        ring = (i - 1) % n
        others = [j for j in range(n) if j != i and j != ring]
        for j in sorted([ring] + rng.sample(others, extra)):
            weights[i][j] = round(rng.uniform(0.5, 1.5), 6)
            fn = dict(shapes[len(constraints)])
            constraints.append({"sender": j, "receiver": i, "fn": fn})
    return {"weights": weights, "constraints": constraints}
