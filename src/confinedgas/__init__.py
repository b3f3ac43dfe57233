"""Quantum statistics of ideal gases in finite containers.

Boundary (perimeter) and connectivity (hole-count) corrections to the
density of states of 2-D domains and 3-D tubes, the resulting equations of
state and thermodynamic quantities, and an exact Dirichlet-spectrum oracle
used to verify every asymptotic formula.

The oracle (``confinedgas.spectral``) is not re-exported here: it needs
scipy, and importing the package or any other module does not load it.
"""

from .errors import (
    AccuracyError,
    ConfinedGasError,
    ConvergenceError,
    DomainError,
    GeometryError,
    ModelError,
    NoBracketError,
    NonMonotoneError,
    ResourceError,
    SingularityError,
    TruncationError,
)
from .statfun import (
    FERMI_Z_MAX,
    FunctionValue,
    Method,
    Order,
    StatKind,
    bose_limit_at_unity,
    eval_h,
    eval_h_closed_form,
    eval_h_inversion,
    eval_h_series,
    h_orders,
)
from .geometry import (
    Annulus,
    AspectRatioWarning,
    Disk,
    FreePlane,
    PlanarDomain,
    PolygonWithHoles,
    Rectangle,
    ShapeSpec,
    TubeDomain,
    free_plane,
    make_domain,
    parse_shape,
    thermal_wavelength,
    weyl_state_sum,
)
from .eos import (
    GasState,
    ValidityReport,
    log_grand_potential,
    particle_number,
    pressure,
    solve_fugacity,
)
from .thermo import (
    Aux2D,
    Aux3D,
    ThermoReport,
    aux_2d,
    aux_3d,
    dz_dT_2d,
    dz_dT_3d,
    thermo_2d,
    thermo_3d,
)

__version__ = "0.1.0"
