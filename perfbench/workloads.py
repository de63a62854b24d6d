"""The benchmark's workloads: one ``kahlercheck run`` selection each.

Every workload is a closed loop of one client: the next CLI invocation
starts only after the previous one has exited.  ``fixtures`` lists what the
selection touches, so the set-up probe builds exactly those; ``jobs`` is the
CLI's ``--jobs``.
"""

from __future__ import annotations

WORKLOADS = {
    # jet kernel, geometry and operators; 86 % of the convolution terms on
    # 10^4-node quadrature batches; no t-stencil and no flow
    "identity": {
        "args": ["--suite", "identity"],
        "fixtures": ["FLAT2", "PERT2", "RIEM4", "KAH4", "FS"],
        "jobs": 1,
    },
    # linear-curve variations: every stencil point builds a new GeometryState
    # and new fixture fields on 120-node batches; no flow
    "linear-fd": {
        "args": ["--check", "V-F,V-GRAD,V-ADJ,V-TRCOV,V-DIV1,V-DIV2,V-SUPER,"
                 "V-DH,V-HESS,V-HESS-F"],
        "fixtures": ["FLAT2", "PERT2", "RIEM4", "KAH4"],
        "jobs": 1,
    },
    # Hamiltonian-flow pullbacks integrated in jets take almost all the time,
    # and V-KURSYM and V-NJ integrate the same flows again at several t
    "flow": {
        "args": ["--check", "V-NJ,V-DBARVAR,V-SECORD,V-DBARVF,V-KURSYM",
                 "--fixture", "FS"],
        "fixtures": ["FS"],
        "jobs": 1,
    },
    # large-batch quadrature convolutions through the CLI's process pool;
    # S-GAUGE and S-CHAR are left out because they are flow checks
    "shrinker-jobs2": {
        "args": ["--check", "S-PERELMAN,S-SOLITON,S-LAMBDA,S-PKER,S-PI2,S-GMET,"
                 "S-TCONE,S-BOCHNER,S-STAB,S-PHI,S-INT,S-WBOCH,S-DH",
                 "--fixture", "FS,KAH4"],
        "fixtures": ["FS", "KAH4"],
        "jobs": 2,
    },
}
