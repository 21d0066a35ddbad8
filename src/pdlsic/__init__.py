"""Worst-case analysis and simulation of PDL-impaired dual-polarization channels.

The toolkit covers the full chain: the compound channel class and its
matrices (:mod:`~pdlsic.channel`), the universal orthogonal precoders and
effective-channel structure (:mod:`~pdlsic.precode`), exact equalization
statistics with the two stages of interference cancellation
(:mod:`~pdlsic.equalize`), closed-form capacities with brute-force oracles
(:mod:`~pdlsic.capacity`), Monte Carlo certification
(:mod:`~pdlsic.montecarlo`), and link-budget composition from external FER
tables (:mod:`~pdlsic.linkbudget`).  The ``pdlsic`` command exposes all of
it from the shell.  Each public name is imported from the one module that
defines it; the package itself imports none of them.
"""

__version__ = "0.1.0"
