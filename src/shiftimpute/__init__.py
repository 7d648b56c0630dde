"""Covariate-shift-aware round-robin imputation.

MAR missingness makes the observed and missing rows of a column differ in
covariate distribution; fitting per-column conditional models on observed
rows alone is then biased for the cells that actually need imputing. This
package plants calibrated MAR masks, estimates importance weights from a
per-column observedness classifier, fits weighted conditional models (ridge,
CART forest, MLP) in a round-robin loop, and benchmarks the weighted variant
against its otherwise identical unweighted twin.
"""

from .data import DataMatrix
from .engine import ImputationConfig, impute
from .masking import MarSpec, apply_mar_mask
from .metrics import evaluate_imputation

__version__ = "0.1.0"
