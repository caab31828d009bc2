"""Verification toolkit for almost contact metric and sub-Riemannian
structures given in adapted coordinates."""

__version__ = "0.1.0"

from .expr import Jet, ScalarField, parse  # noqa: F401
from .chart import (  # noqa: F401
    AdaptedChart,
    AdaptedTransition,
    change_chart,
    rank_at,
)
from .structure import (  # noqa: F401
    AdaptedStructure,
    StructureEval,
    validate_axioms,
)
from .connection import (  # noqa: F401
    ConnectionCoeffs,
    canonical_connection,
    cov_phi,
    internal_cov_deriv,
    lc_adapted,
    lc_coordinate,
    metricity_defect,
    n_connection,
    torsion,
)
from .classify import (  # noqa: F401
    ClassificationReport,
    reeb_split_identity_residual,
    projection_identity_residual,
    aqs_characterization_residual,
    classification_report,
    nijenhuis_tensors,
)
from .curvature import (  # noqa: F401
    curvature_K,
    einstein_reports,
    ricci_k,
    ricci_wagner,
    schouten,
)
from .manifest import Manifest, load_fixture, load_manifest  # noqa: F401
from .checks import RunReport, run_full_check, sampled_evaluation  # noqa: F401
