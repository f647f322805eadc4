"""Interior-point proximal trust-region solvers for nonsmooth bound-constrained
optimization, the proximal baselines R2, TR-R2 and TRDH, benchmark problems,
and a CLI harness.  Each name is imported from the module that owns it."""
