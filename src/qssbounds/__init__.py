"""Share-size lower bounds for quantum secret sharing.

Model an access structure, generate the entropy-inequality constraint
system every perfect realization must satisfy, and prove exact rational
lower bounds on share sizes (upper bounds on the information rate) by
linear programming with replayable dual certificates.
"""

from .structures import (
    CAPACITY,
    AccessStructure,
    CapacityError,
    CsirmazParams,
    PlayerSet,
    StructureError,
    csirmaz,
    csirmaz_k,
    dual,
    from_minimal_sets,
    is_quantum,
    is_self_dual,
    purify,
    structure_from_dict,
    structure_to_dict,
    theorem3_reference_bound,
)
from .cone import (
    ConstraintSystem,
    GroundSet,
    LinearConstraint,
    build_system,
    purity_constraint,
    qss_constraints,
    vn_inequalities,
)
from .simplex import LPProblem, LPSolution, solve
from .prover import (
    BoundReport,
    Certificate,
    ChainReport,
    CheckResult,
    Objective,
    ProverError,
    SuiteReport,
    certificate_from_json_dict,
    certificate_to_json_dict,
    check_implied,
    lemma_suite,
    rat_str,
    share_bound,
    theorem3_chain,
    verify_certificate,
)

__version__ = "0.1.0"
