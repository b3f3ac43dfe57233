"""Quantum statistics of ideal gases in finite containers.

Boundary (perimeter) and connectivity (hole-count) corrections to the
density of states of 2-D domains and 3-D tubes, the resulting equations of
state and thermodynamic quantities, and an exact Dirichlet-spectrum oracle
used to verify every asymptotic formula.

The oracle (``confinedgas.spectral``) and its checks (``confinedgas.certify``)
are not re-exported here: they need scipy, and importing the package or any
other module does not load them.
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
    eval_h,
    h_orders,
)
from .geometry import (
    Annulus,
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
    weyl_terms,
)
from .eos import (
    GasState,
    ValidityReport,
    dz_dT,
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
    thermo_2d,
    thermo_3d,
)

__version__ = "0.1.0"
