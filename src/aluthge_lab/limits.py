"""Every cut, budget and default of the package, each assigned once.

Values only: this module defines no function and imports nothing but
math and sys, so the CLI's parser reads its defaults here without
importing numpy.  Other modules take a value by name (`from .limits
import NAME`), so a module reads its own binding: patching
`positivity.STACK_FLOATS` changes the stacks of positivity and of its
callers, and leaves this module's value as it is.
"""

import math
import sys

# ---------------------------------------------------------------------------
# weight diagrams

# Absolute tolerance on the commutativity residual alpha_k beta_{k+e1} - beta_k alpha_{k+e2}.
COMMUTATIVITY_TOL = 1e-12
# Relative tolerance for path independence of moment tables.
MOMENT_REL_TOL = 1e-10
# Relative-error denominators are floored at this value.
DENOM_FLOOR = 1e-30
# Largest accepted weight: squares, pairwise products and the sums of two
# of them (alpha^2 + beta^2, the six-point terms) stay finite.
MAX_WEIGHT = math.sqrt(sys.float_info.max / 2)
# Largest weight window a diagram materializes, in lattice points (two
# float arrays of 18 MB).  The widest window an order-1 test within the
# block budget reads is 1451 x 1451 (hypo -N 1449).
MAX_WINDOW_POINTS = 1500 * 1500

# ---------------------------------------------------------------------------
# positivity

# A matrix passes the PSD test when min eig >= -PSD_TOL * max(1, scale).
PSD_TOL = 1e-10
# The order-1 spectral identity must hold to this absolute-per-scale level.
CROSS_CHECK_TOL = 1e-8
# Largest order-k block array of one diagram, in floats: 2**23 floats are
# 64 MiB, and the assembly holds a few such arrays at once.  A diagram over
# it is refused.
MAX_BLOCK_FLOATS = 2**23
# Most order-k block floats one kernel call assembles, summed over its
# diagrams (a diagram over it runs alone); every stack is sized from it.
# At N = 12 a call holds 101 diagrams at order 1, 19 at order 2 and 5 at
# order 3 (level 14, as in stacks of 5 points), and classify_many stacks
# 33 points.  On the bench, against stacks of 5 points, corner-scan took
# 13% less time at +0.1 MB of peak RSS and reproduce 12% less at +0.8 MB;
# 2**15 (3 diagrams at order 3) saved 9% and 11%, and 2**16 (45-point
# stacks) 9% and 13% at +0.3 and +1.5 MB.
STACK_FLOATS = 3 * 2**14
# Order-k blocks multiply 2k weights; they are refused once 2k log(top
# weight) reaches log(float max) less this relative allowance, since the
# products and the logarithms are each rounded.
OVERFLOW_ROUNDOFF = 1e-12
# A hierarchy inversion is decisive when the lower order fails below
# -HIERARCHY_BAND * tol while the higher one passes with a positive minimum.
HIERARCHY_BAND = 100
# Highest order the CLI's hypo and regions classify test by default, as
# full_hypo_report and classify do.
DEFAULT_KMAX = 1

# ---------------------------------------------------------------------------
# transforms

DEFAULT_WINDOW = 14
# Round-off allowance on the continuity bounds (slack may dip this far below 0).
RE4_SLACK = 1e-10
# Two routes to the same verdict must not disagree by more than this factor
# on both sides of the cutoff; anything closer counts as boundary noise.
DECISIVE_BAND = 1e2
# Largest commutativity residual, per weight scale, of a spherical transform
# before it counts as lost.
SPHERICAL_GUARD_TOL = 100 * COMMUTATIVITY_TOL
# transforms._joint_modulus maps math.hypot over inputs of fewer floats than
# this and runs its numpy port on larger ones; both give the same bits.  The
# port costs more per call and less per float.  On the bench's 2-vCPU Xeon VM
# (best of 9 repeats of 200 or 300 calls, uniform draws in [0.3, 1)) the map took
# 18.7, 25.4, 36.5 and 585 us on 289, 400, 578 and 9537 floats and the port
# 26.3, 26.9, 31.8 and 176 us, even near 420.  So one 17^2 window, a
# one-point classify at N = 12, keeps the map, and two windows take the port.
HYPOT_PORT_FLOATS = 420

# ---------------------------------------------------------------------------
# quasinormality and atomic measures

# Constant-row deviation allowed when detecting spherical quasinormality.
QUASINORMAL_TOL = 1e-12
# Fixed-point route: allowed weight deviation between W and its spherical transform.
FIXED_POINT_TOL = 1e-10
# The two quasinormality routes disagree decisively when one deviation
# passes its cut and the other exceeds QUASINORMAL_BAND times its own.
QUASINORMAL_BAND = 1e3
# The masses of an atomic measure must sum to 1 within this.
MASS_SUM_TOL = 1e-9

# ---------------------------------------------------------------------------
# regions of the corner family

# Points closer than this to a curve are skipped when comparing verdicts.
BOUNDARY_MARGIN = 1e-6
BISECTION_TOL = 1e-10
# Round-off allowed in the ordering s <= h <= PA, CA <= h of the curves.
CURVE_ORDER_SLACK = 1e-15
DEFAULT_SCAN_LEVEL = 12
DEFAULT_LADDER = 20

# ---------------------------------------------------------------------------
# reproduce: its targets, its seed and the bounds of its rows

TARGETS = ("prehypo", "prop1", "prop2", "propscaling2", "quasinormal2", "re4", "thm1")
DEFAULT_SEED = 7
# crossing_q against the published 0.52138, and the runtimes of the corner rows.
CROSSING_Q_TOL = 1e-4
CROSSING_RUNTIME_S = 1.0
GRID_RUNTIME_S = 30.0
# Residuals and weight gaps that vanish in exact arithmetic, and closed-form
# weights read back from a diagram.
ROUNDOFF_GAP = 1e-12
# Smallest toral-spherical gap of a perturbed proportional-row diagram.
PERTURBED_GAP = 1e-6
# Largest relative moment error of a Berger row (and berger verify's --tol).
BERGER_TOL = 1e-10
# Largest residual of the quasinormal power identity.
POWER_IDENTITY_TOL = 1e-10
# Largest spherical transform distance at a perturbation of 1e-4.
SWEEP_DISTANCE_CAP = 1e-2

# ---------------------------------------------------------------------------
# CLI defaults with no library counterpart

# Truncation level of hypo and probe-continuity.
DEFAULT_LEVEL = 10
# Window and interior level of the quasinormal commands.
QUASINORMAL_WINDOW = 10
QUASINORMAL_LEVEL = 8
# Weights stampfli prints, and the moment degree berger verify compares.
STAMPFLI_COUNT = 8
BERGER_MAXDEG = 10
