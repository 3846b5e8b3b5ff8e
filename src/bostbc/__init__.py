"""Block-orthogonal space-time block codes.

Constructions of linear STBCs whose QR factor splits into block-orthogonal
form, detection and verification of that structure on random channels, and
a depth-first sphere decoder that exploits it through metric memoization.
"""

from .codes import (
    GOLDEN_ORDERING_222,
    GOLDEN_ORDERING_421,
    GOLDEN_ORDERING_SCRAMBLED,
    InvalidPermutation,
    LinearSTBC,
    PremiseViolated,
    UnsupportedSize,
    alamouti_code,
    bhv_code,
    cda_2x2,
    ciod,
    construction_i,
    construction_ii,
    construction_iii,
    construction_iv,
    cuwd_rate1_4group,
    golden_code,
    load_code,
    named_code,
    reorder,
    save_code,
    srinath_rajan_code,
)
from .decoder import (
    DecoderStats,
    EmCountBounds,
    InvalidProfile,
    NotUpperTriangular,
    PamConstellation,
    TooLarge,
    em_count_bounds,
    exhaustive_ml,
    prepare,
    qrdm_bound,
    sphere_decode,
)
from .linalg import (
    QrResult,
    RankDeficient,
    check_expand,
    gram_schmidt_qr,
    kron,
    tilde_vec,
)
from .sim import (
    SimulationCampaign,
    SweepResult,
    run_sweep,
    run_trial,
    snr_to_noise_variance,
    write_csv,
)
from .structure import (
    BlockOrthogonalProfile,
    StructureReport,
    TooFewReceiveAntennas,
    classify,
    detect_profile,
    detect_structure,
    equivalent_channel,
    ordering_search,
    profile_validates,
    structural_pattern,
    verify_cuwd_sum_structure,
    verify_multi_block_premises,
)

__version__ = "0.1.0"
