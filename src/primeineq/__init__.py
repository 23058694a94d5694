"""Computational toolkit for prime-power Diophantine inequalities.

Exact exponent bookkeeping (exponent pairs, monomial bound optimization,
rational audit ledgers), the smoothing kernel and its Fourier transform,
exponential sums over primes with quadrature oracles, near-diagonal tuple
counting, and direct desk-scale solvers for |p_1^c + ... + p_k^c - R| < eps.
"""

from .exact import BoundExpr, Monomial, bound_root, gk_optimize, monomial_cross
from .exppair import (ExponentPair, TRIVIAL_PAIR, a_process, apply_word,
                      b_process, pair_bound, parse_word, render_word,
                      search_pairs)
from .kernel import KernelParams, kernel_from_instance, phi_eval, phi_fourier, \
    phi_fourier_bound
from .sums import ConvergenceError, GuardError, ProblemInstance, PrimeTable, \
    integral_I, moment4, sieve_primes, sum_S, sum_T
from .count import CountSpec, CountResult, count_tuples_fast, count_tuples_naive
from .solver import (SolutionRecord, count_B, find_sextuple, find_triple,
                     instance_for_theorem1, instance_for_theorem2, main_term_H,
                     triple_solvable, weighted_B1)
from .reports import exceptional_scan

__version__ = "0.1.0"
