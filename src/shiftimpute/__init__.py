"""Covariate-shift-aware round-robin imputation.

MAR missingness makes the observed and missing rows of a column differ in
covariate distribution; fitting per-column conditional models on observed
rows alone is then biased for the cells that actually need imputing. This
package plants calibrated MAR masks, estimates importance weights from a
per-column observedness classifier, fits weighted conditional models (ridge,
CART forest, MLP) in a round-robin loop, and benchmarks the weighted variant
against its otherwise identical unweighted twin.
"""

from .data import (
    ColumnStats,
    DataMatrix,
    MaskedDataset,
    MaskMatrix,
    load_csv,
    load_masked_csv,
    save_csv,
    save_masked_csv,
)
from .engine import (
    ImputationConfig,
    ImputationResult,
    impute,
    initial_impute,
    visitation_order,
)
from .masking import (
    CalibratedMechanism,
    MarSpec,
    apply_mar_mask,
    calibrate_intercept,
    select_random_spec,
    sigmoid,
)
from .metrics import (
    MetricsReport,
    WilcoxonResult,
    evaluate_imputation,
    rmse_masked,
    wasserstein_1d,
    wasserstein_marginal_sum,
    wilcoxon_signed_rank,
)
from .propensity import (
    PropensityModel,
    WeightVector,
    estimate_weights,
    fit_propensity,
    weights_from_propensity,
)
from .regressors import (
    ForestSpec,
    MlpSpec,
    RegressorSpec,
    fit_weighted_forest,
    fit_weighted_mlp,
    fit_weighted_ridge,
    predict,
    weighted_mse,
)

__version__ = "0.1.0"
