"""Inception temporal convolutional network for multi-channel EEG epochs.

A compact classifier built on a small numpy autodiff core, with an epoch
file format, synthetic cohort generation, within/cross-subject evaluation
scenarios, exact paired significance tests, and filter-level
explainability (kernel spectra and scalp patterns).
"""
from .data import (EpochSet, SourceSpec, SynthSpec, concat_epochs, load_epochs,
                   save_epochs, standardize, synth_generate, window_samples)
from .errors import FormatError
from .explain import (FilterAtlas, build_atlas, export_atlas, kernel_spectrum,
                      savgol_coeffs, savgol_smooth, spatial_patterns)
from .model import (ArchConfig, ITNetModel, build, load_model, plan_kernel,
                    receptive_field_blocks, receptive_field_plain, save_model)
from .stats import paired_t_right, rank_sum_counts, wilcoxon_one_sided
from .tensor import Tensor, no_grad
from .training import (SCENARIOS, ScenarioReport, SubjectResult, TrainConfig,
                       default_train_config, evaluate, fit_with_early_stopping,
                       refit_extra_epochs, run_scenario, stratified_kfold)

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "EpochSet", "FilterAtlas", "FormatError", "ITNetModel",
    "SCENARIOS", "ScenarioReport", "SourceSpec", "SubjectResult", "SynthSpec",
    "Tensor", "TrainConfig", "build",
    "build_atlas", "concat_epochs", "default_train_config",
    "evaluate", "export_atlas", "fit_with_early_stopping",
    "kernel_spectrum", "load_epochs", "load_model", "no_grad",
    "paired_t_right", "plan_kernel", "rank_sum_counts",
    "receptive_field_blocks", "receptive_field_plain", "refit_extra_epochs",
    "run_scenario", "save_epochs", "save_model", "savgol_coeffs",
    "savgol_smooth", "spatial_patterns", "standardize", "stratified_kfold",
    "synth_generate", "wilcoxon_one_sided", "window_samples",
]
