"""fflab: exact verification laboratory for counting problems over F_q[t].

Exact-arithmetic building blocks (finite fields, Laurent windows, cyclotomic
character sums) plus the counting, dissection, averaging, lattice and moduli
layers built on them.  Everything is deterministic and integer/rational exact;
floating point appears only inside rigorous interval refinement.
"""

from .errors import (BudgetExceededError, ConfigError, PrecisionError,
                     VerificationFailure)
from .fields import FieldElement, FieldSpec, find_irreducible, trace
from .polys import BinaryForm, Polynomial, poly_gcd
from .cyclotomic import (CyclotomicValue, abs_power_at_most, compare_abs_power,
                         real_sign)
from .laurent import (LaurentElement, ball_measure, character_value,
                      expand_rational)
from .forms import (HypersurfaceForm, MultilinearSystem, fermat_form,
                    parse_form_file, smoothness_probe, symmetrize)
from .circle import ArcPoint, AtomSum, CountingProblem
from .weyl import (InequalityReport, PointwiseReport, canonical_shape_report,
                   check_shrink, check_smallbox_chain, check_weyl,
                   compare_pointwise, count_M_v, count_N, count_N_eta,
                   count_curly_N, measure_flat_count, measure_pointwise)
from .audit import (AuditReport, DimReport, audit_minor_arcs, dims,
                    eta_choice, gamma_budget, minor_arc_range, n0, nu_hat)
from .latgon import (FunctionFieldLattice, LatticeCheck, MinimaProfile,
                     SpecialLatticePair, check_cape, check_ratio_lemma,
                     check_sandwich, count_NaZ, diagonal_lattice,
                     gamma_from_problem, random_symmetric_gamma)
from .moduli import (CountReport, MorphismTuple, check_coprimality_criteria,
                     count_cone, count_morphisms, enumerate_lines,
                     extend_spec, gcd_coprime, langweil_report,
                     resultant_coprime, total_solutions)
from .reporting import ReportRecord, emit_report, read_rows, write_report
from .harness import RunConfig, RunResult, load_config, run_task

__version__ = "0.1.0"
