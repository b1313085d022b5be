"""freelie: exact characters of free Lie superalgebra modules.

An exact-arithmetic library and CLI for the bigraded characters of the free
Lie superalgebra and its higher modules, Schur and power-sum expansions,
signed standard tableau statistics (maj, comaj, bar counts), cyclic group
inductions, q,t-hook products and principal specializations, with every
identity verifiable at desk scale through independent computation paths.

The names below are re-exported lazily: ``from freelie import X`` imports
the module that defines X on first use, so that importing one module (the
CLI, say) does not load the others.
"""

_MODULES = (
    "exactalg", "partition", "tableau", "symfunc", "superlie", "cyclic",
    "specialization", "verify", "cli",
)

# re-exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("exactalg", "CycloElem ExactDivisionError MultiPoly QTPoly Rational"
         " ResourceLimitError binom cyclo_reduce cyclotomic_poly mobius q_pochhammer"),
        ("partition", "Partition conjugate format_partition hook_length parse_partition"
         " partitions_of z_lambda"),
        ("tableau", "StandardTableau SuperTableau comaj count_super_tableaux descent_set maj"
         " maj_neg_generating_poly maj_neg_generating_polys negg relative_comaj"
         " relative_maj super_comaj super_descent_set super_maj syt_descent_sets"
         " syt_enumerate"),
        ("symfunc", "BiSymFunc ClassFunctionSn SymFunc diagonal e_pleth expand_truncated"
         " frobenius_characteristic h_pleth mn_character multiply plethysm_p"
         " render_schur schur_expand"),
        ("superlie", "SupportMatrix brute_force_lie_dim enumerate_bidegree_matrices"
         " gamma_char petrogradsky_series super_bi_brandt_char super_brandt_char"
         " super_lie_module_char super_witt_dim thrall_routes"),
        ("cyclic", "CyclicClassFunction chi_cyc chi_cyc_oracle chi_power induce_frobenius"
         " induce_oracle pointwise_product super_klyachko_char"),
        ("specialization", "SpecSeries degree_two_routes hook_product kw_generating_function"
         " kw_routes omega_extract omega_extract_roots pi_lambda pi_root_routes"
         " qps_routes qsym_principal_spec qt_hook_routes s_ps_routes super_cauchy_routes"
         " super_qsym_truncated super_schur_truncated symmetry_counts"),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    """A re-exported name, or a submodule, imported on first use."""
    import importlib

    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

