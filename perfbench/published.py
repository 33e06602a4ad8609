"""Published values of the Lennard-Jones (12, 6) figure-eight paper.

Kept in the benchmark, apart from the package, as printed: the triples
stay strings so their printed precision sets the size of the seeded
perturbation the `solve` workload applies.
"""

# the first zero crossing of both residuals on the x0 = 0.75 lattice
X0_SCAN = 0.75
FIRST_CROSSING = (0.725966, 0.522742)

# (family, x0, y0, v, cited energy or None); collision counts per family
TRIPLES = [
    ("alpha-upper", "0.75", "0.725966", "0.522742", None),
    ("alpha-upper", "1.0", "0.983588", "0.232296", None),
    ("alpha-upper", "1.5", "1.478621", "0.0694721", None),
    ("alpha-lower", "0.75", "0.553223", "0.615805", None),
    ("alpha-lower", "1.0", "0.513969", "0.396537", None),
    ("alpha-lower", "1.5", "0.502649", "0.181062", None),
    # the beta triple at x0 = 0.726 is left out: it sits on that family's
    # fold, where the fixed-x0 Newton Jacobian degenerates
    ("beta", "1.0", "0.956733", "0.144241", 0.00263843),
    ("beta", "1.0", "1.241130", "0.0717890", 0.000697053),
    ("gamma", "0.6007", "0.748371", "0.371779", 0.0622734),
    ("gamma", "0.8", "1.081836", "0.126051", 0.00561328),
    ("gamma", "0.8", "1.136739", "0.0749665", -0.00519619),
    ("delta", "0.6501", "0.597985", "0.304229", -0.143858),
    ("delta", "0.84", "0.827038", "0.126408", -0.0330865),
    ("delta", "0.84", "0.848830", "0.0757119", -0.0387688),
    ("epsilon", "0.7074", "0.579781", "0.204620", -0.211945),
    ("epsilon", "0.91", "0.803912", "0.0857343", -0.0497687),
    ("epsilon", "0.91", "0.811359", "0.0540501", -0.0521151),
]
COLLISION_COUNT = {"alpha-upper": 0, "alpha-lower": 4, "beta": 8, "gamma": 8,
                   "delta": 16, "epsilon": 24}

# distinguished points on the alpha family (x0-min, E-max, T-min) and the
# zero-energy point on the gamma family: (value, tolerance)
X0_MIN = (0.6812, 2e-3)
X0_MIN_Y0 = (0.617578, 2e-3)
E_MAX = (0.295542, 1e-3)
E_MAX_X0 = (0.686512, 1e-3)
E_ZERO_X0 = (0.671188, 1e-3)
E_ZERO_ABS_E = 1e-6
E_ZERO_Y0_V = (0.893818, 0.188131)
T_MIN = (14.5, 0.5)
