"""Worst-case analysis and simulation of PDL-impaired dual-polarization channels.

The toolkit covers the full chain: the compound channel class and its
matrices (:mod:`~pdlsic.channel`), the universal orthogonal precoders and
effective-channel structure (:mod:`~pdlsic.precode`), exact equalization
statistics with the two stages of interference cancellation
(:mod:`~pdlsic.equalize`), closed-form capacities with brute-force oracles
(:mod:`~pdlsic.capacity`), Monte Carlo certification
(:mod:`~pdlsic.montecarlo`), and link-budget composition from external FER
tables (:mod:`~pdlsic.linkbudget`).  The ``pdlsic`` command exposes all of
it from the shell.
"""

from .capacity import (
    MeanIdentityReport,
    PdlPenalties,
    StarPropertyReport,
    WorstCaseSearch,
    c_awgn,
    c_compound,
    c_compound_approx,
    c_nonjoint,
    c_parallel,
    c_parallel_approx,
    inverse_c_compound,
    mean_identity_check,
    penalties_db,
    verify_star_property,
    worst_case_search,
)
from .channel import (
    ChannelParams,
    Model,
    SampleMode,
    SnrSpec,
    alpha_from_pdl_db,
    channel_matrix,
    draw_params,
    lattice,
    pdl_db_from_alpha,
    sample_params,
    validate_alpha,
)
from .equalize import (
    SingularChannelError,
    StreamScheme,
    StreamStats,
    cancel_first_group,
    closed_form_stream_snr,
    first_stage_equalizer,
    lmmse_equalizer,
    post_sic_streams,
    second_stage_statistics,
    stream_statistics,
    zf_equalizer,
)
from .linkbudget import (
    CodePoint,
    FerPoint,
    FerTable,
    FerTableError,
    OperatingPoint,
    SnrOutOfRangeError,
    evaluate_operating_point,
)
from .montecarlo import (
    EmpiricalStats,
    Scheme,
    SerStats,
    SimConfig,
    SimReport,
    run,
    ser_pam_awgn,
)
from .precode import (
    EffectiveChannel,
    OrthogonalDesignReport,
    Precoder,
    effective_channel,
    identity_precoder,
    interference_coupling,
    permute_columns,
    precoder_complex,
    precoder_real,
    universal_precoder,
    verify_orthogonal_design,
)

__version__ = "0.1.0"
