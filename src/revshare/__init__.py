"""Revenue-sharing contract equilibria between a content provider and ISPs.

Closed-form solvers for the competitive, cooperative, regulated and
public/private market scenarios, brute-force numerical oracles that
re-derive every result independently, Nash-bargaining splits and Shapley
values, and comparison reports across scenarios.
"""

from .bargaining import (
    NbsSplit,
    ShapleyReport,
    coalition_values,
    disagreement_point,
    nbs_split_closed,
    shapley_closed,
)
from .closed_form import (
    ContinuumEquilibrium,
    solve_asymmetric_competitive,
    solve_fixed_public_effort_coop,
    solve_multi_cp,
    solve_public_private,
    solve_public_private_regulated,
    solve_regulated_competitive,
    solve_regulated_cooperative,
    solve_regulated_cooperative_cp_preferred,
    solve_symmetric_competitive,
    solve_symmetric_cooperative,
    symmetric_per_isp_utility_forms,
)
from .compare import (
    ComparisonReport,
    Ordering,
    compare_coop_comp,
    compare_public_private,
    n_scaling_report,
)
from .lambertw import lambert_w0, log_x_over_w
from .model import (
    BargainingResult,
    Branch,
    Contract,
    DegenerateRegimeError,
    DisagreementPolicy,
    EffortProfile,
    EquilibriumOutcome,
    InfeasibleBargainError,
    InfeasibleEffortError,
    MarketParams,
    NonFiniteOutcomeError,
    ScenarioKind,
    ValidationReport,
    cp_utility,
    demand,
    isp_utility,
    validate,
)
from .oracle import (
    best_response_effort,
    golden_section_max,
    leader_optimum,
    nash_product_maximize,
    shapley_brute,
    solve_asymmetric_cooperative,
)

__version__ = "0.1.0"
