"""One-bit ADC multi-user MIMO detection library and simulation toolkit."""

from .analysis import (
    ComplexityQuery,
    SepBoundInputs,
    complexity_model,
    compute_llrs,
    sep_bound,
)
from .channel import (
    ComplexChannel,
    RealChannel,
    expand_real_channel,
    quantize_sign,
    sample_rayleigh_channel,
    stream_rng,
    transmit_and_quantize,
)
from .codebook import (
    Codebook,
    Constellation,
    SymbolTable,
    build_codebook,
    enumerate_symbol_vectors,
    make_constellation,
)
from .detectors import (
    ConfigError,
    DetectionResult,
    Receiver,
    SphereConfig,
    SphereTable,
    assemble_list,
    build_sphere_table,
    detect_mld,
    detect_mwd,
    detect_mwd_high_snr,
    detect_osd,
    pattern_index,
    pattern_signs,
    read_sphere_table,
    sphere_table_from_bytes,
    sphere_table_to_bytes,
    weighted_hamming,
    write_sphere_table,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRecord,
    records_to_csv,
    records_to_json,
    run_bound_sweep,
    run_sep_experiment,
    run_ser_experiment,
    run_tradeoff_sweep,
    snr_db_to_sigma_sq,
    wilson_interval,
)
from .weights import (
    WeightSet,
    compute_weights_approx,
    compute_weights_exact,
    log_q,
    q_hat,
)

__version__ = "0.1.0"
