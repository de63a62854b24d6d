#!/usr/bin/env python3
"""Re-derive the Lichnerowicz curvature coefficient frozen in the manifest.

Scans (cR, cRic) over a small grid and reports which combination makes the
endomorphism Bochner chain hold on the curved fixtures.  The shipped value
(cR = -2, cRic = 0) is the unique match across all of them; run this after
changing any curvature or adjoint convention.
"""

import numpy as np

from kahlercheck import backends as bk
from kahlercheck import fields as fl
from kahlercheck import soliton as so
from kahlercheck import tensorcalc as tc
from kahlercheck.geometry import GeometryState
from kahlercheck.jets import jet_einsum


def main():
    for kind in ("FS", "KAH4", "PERT2"):
        geom = GeometryState(bk.make_fixture(kind))
        batch = geom.fixture.check_nodes(1, 30)[0]
        A = fl.seeded_antilinear(geom, 2)(batch, 2)
        route1, route2 = so.bochner_routes(geom, batch, A)
        print(f"{kind}: route equivalence "
              f"{np.max(np.abs((route1 - route2).value)):.2e}")
        v = tc.flat_endo(geom, batch, A)
        lap = tc.adjoint(geom, batch, tc.cd(geom, batch, v, "ll"), "lll")
        Rv = tc.curvature_action_sym2(geom, batch, v)
        vs = tc.sharp_sym2(geom, batch, v.truncate(2))
        ric = geom.ric(batch, 2)
        RicV = jet_einsum("pik,pkj->pij", ric, vs) + \
            jet_einsum("pjk,pki->pij", ric, vs)
        best = None
        for cR in (-2.0, -1.0, 1.0, 2.0):
            for cRic in (-1.0, -0.5, 0.0, 0.5, 1.0):
                L = lap + Rv * cR + RicV * cRic
                LA = tc.sharp_sym2(geom, batch, L)
                res = float(np.max(np.abs((LA - route1).value)))
                if best is None or res < best[0]:
                    best = (res, cR, cRic)
                if res < 1e-8:
                    print(f"  match: cR={cR:+.1f} cRic={cRic:+.1f} "
                          f"residual {res:.2e}")
        print(f"  best: residual {best[0]:.2e} at cR={best[1]:+.1f} "
              f"cRic={best[2]:+.1f}")


if __name__ == "__main__":
    main()
