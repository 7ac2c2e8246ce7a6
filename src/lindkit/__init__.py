"""lindkit: open-quantum-system dynamics toolkit.

Dense spectral machinery for Lindblad generators and Markovian kernels
(construction, spectra, complete positivity, entropy flow), first-order
perturbation theory with degenerate rotations, and a Ramsey-interferometer
model including the modified excited-state fraction that distinguishes
linearly corrected quantum theories from the standard one.
"""
from . import channels, errors, lindblad, matcore, perturb, quantum, ramsey
from .channels import (
    ChoiSpectrum,
    GKSForm,
    Kernel,
    bfr_derivative_check,
    choi_cp_test,
    extract_generator,
    gks_build,
    gks_project,
    kernel_from_generator,
)
from .lindblad import (
    DecayMatrix,
    LindbladModel,
    MeasurementModel,
    SuperopSpectrum,
    born_limit_check,
    build_superoperator,
    decay_matrix,
    diagonal_solution,
    evolve,
    evolve_many,
    evolve_stencil,
    measurement_model,
    spectrum,
)
from .matcore import ChainSpectrum, expm, general_eig, herm_eig
from .perturb import PerturbationResult, first_order
from .quantum import (
    DensityMatrix,
    ProjectorBasis,
    born_collapse,
    entropy_rate,
    entropy_rates,
    vn_entropies,
    vn_entropy,
)
from .ramsey import (
    RamseyConfig,
    ScanResult,
    gaussian_fraction,
    protocol,
    pulse_closed_form,
    scan,
)

__version__ = "0.1.0"
