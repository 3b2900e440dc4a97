"""Privacy-aware gradient compression with numerically designed mechanisms."""

__version__ = "0.1.0"

from .accounting import (
    DEFAULT_ALPHAS,
    DEFAULT_DELTA,
    AccountingError,
    AnadromicityError,
    FisherDiagnostics,
    PrivacyLedger,
    accounting_report,
    attach_accounting,
    compose,
    domain_for_beta,
    eps_prime,
    fisher_info,
    fisher_sup,
    imvu_ledger,
    rdp_to_dp,
    spent_epsilon,
    verify_accounting,
)
from .baselines import BaselineConfig, privatize_baseline, privatizer
from .designer import (
    DesignError,
    DesignSpec,
    SymmetryError,
    ValidationReport,
    design_mvu,
    enforce_anadromic,
    validate_table,
)
from .dme import SweepReport, SweepRow, dme_mse, gaussian_inputs, sweep_bias_variance
from .fl import FlConfig, TrainResult, client_update, generate_synthetic, train_fl
from .mechanism import (
    ClipConfig,
    InterpolatedMechanism,
    MechanismTable,
    TableInvariantError,
    clip,
    decode,
    interpolate_eta,
    log_pmf,
    moments,
    mvu_dither_moments,
    mvu_dither_pmf,
    pmf,
    privatize_vector,
    sample_batch,
    scale_input,
)
from .oracles import (
    design_variance_grid_min,
    exact_max_divergence,
    eps_prime_grid_max,
    exact_renyi,
    fisher_grid_max,
    joint_divergence_bruteforce,
)
from .table_io import (
    load_mechanism,
    load_table,
    mechanism_from_dict,
    mechanism_to_dict,
    save_mechanism,
)
