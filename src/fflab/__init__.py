"""fflab: exact verification laboratory for counting problems over F_q[t].

Exact-arithmetic building blocks (finite fields as numpy index tables,
cyclotomic character sums, batched linear algebra mod q) plus the counting,
dissection, averaging, lattice and moduli layers built on them.  Field data
is held as numpy index arrays throughout: a polynomial, a binary form or a
Laurent matrix is an array of coefficient indices, never an object per
element.  Everything is deterministic and integer/rational exact; floating
point appears only inside rigorous interval refinement.
"""

from .errors import (Budget, BudgetExceededError, ConfigError,
                     InequalityReport, PrecisionError, VerificationFailure)
from .fields import FieldElement, FieldSpec, find_irreducible, trace
from .cyclotomic import CyclotomicValue, compare_abs_power, real_sign
from .forms import (HypersurfaceForm, fermat_form, parse_form_file,
                    symmetrize)
from .circle import CountingProblem
from .weyl import (PointwiseReport, approx_zero_counts,
                   canonical_shape_report, check_shrink_batch,
                   check_weyl_batch)
from .audit import (AuditReport, DimReport, audit_minor_arcs, dims,
                    eta_choice, gamma_budget, minor_arc_range, n0, nu_hat)
from .latgon import (FunctionFieldLattice, SpecialLatticePair, check_capes,
                     check_ratio_lemmas, check_sandwiches,
                     random_symmetric_gammas, skew_counts)
from .moduli import (CountReport, count_cone, count_morphisms,
                     enumerate_lines, extend_spec, langweil_report,
                     rank_coprime, total_solutions)
from .reporting import ReportRecord, emit_report, read_rows, write_report
from .harness import RunConfig, RunResult, load_config, run_task

__version__ = "0.1.0"
