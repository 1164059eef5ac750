//! Service-name corpora.
//!
//! The paper builds its trees from "identifiers commonly encountered
//! in a grid computing context such as names of linear algebra
//! routines" and sizes the tree at "around 1000" nodes over "~100"
//! peers. The corpora here combine the genuine BLAS/LAPACK/ScaLAPACK/
//! S3L naming grids; the systematic precision × operation structure is
//! exactly what gives the trees their characteristic shared-prefix
//! shape (and what makes the `S3L`/`P` hot spots of Figure 8
//! lexicographically clustered).

use dlpt_core::key::Key;

/// BLAS level-1/2/3 operation roots (precision-independent part).
#[rustfmt::skip]
const BLAS_ROOTS: &[&str] = &[
    // Level 1
    "AXPY", "SCAL", "COPY", "SWAP", "DOT", "NRM2", "ASUM", "ROT", "ROTG", "ROTM", "ROTMG",
    // Level 2
    "GEMV", "GBMV", "SYMV", "SBMV", "SPMV", "TRMV", "TBMV", "TPMV", "TRSV", "TBSV", "TPSV", "GER",
    "SYR", "SPR", "SYR2", "SPR2",
    // Level 3
    "GEMM", "SYMM", "SYRK", "SYR2K", "TRMM", "TRSM",
];

/// LAPACK driver/computational roots used to pad the corpus to the
/// paper's tree size with realistic names.
const LAPACK_ROOTS: &[&str] = &[
    "GESV", "GBSV", "GTSV", "POSV", "PBSV", "PTSV", "SYSV", "GELS", "GELSD", "GELSS", "GEEV",
    "GEES", "SYEV", "SYEVD", "SYEVR", "GESVD", "GESDD", "GETRF", "GETRS", "GETRI", "GEQRF",
    "GERQF", "GELQF", "GEQLF", "POTRF", "POTRS", "POTRI", "PBTRF", "PTTRF", "SYTRF", "SYTRS",
    "TRTRS", "TRTRI", "GEBRD", "GEHRD", "SYTRD", "ORGQR", "ORMQR", "GGEV", "GGES", "GGSVD",
    "GEBAL", "GEBAK", "LANGE", "LANSY", "LACPY", "LASET", "GECON", "GBCON", "POCON", "PBCON",
    "PTCON", "TRCON", "TPCON", "TBCON", "SYCON", "GERFS", "GBRFS", "PORFS", "PBRFS", "PTRFS",
    "TRRFS", "SYRFS", "GEEQU", "GBEQU", "POEQU", "PBEQU", "LANGB", "LANGT", "LANTR", "LANTP",
    "LANTB", "LANSP", "LANSB", "LANST", "LANHS", "LASWP", "LARFT", "LARFB", "LARFG", "LARF",
    "LARTG", "LASCL", "LASSQ", "LAPY2", "ORGLQ", "ORMLQ", "ORGRQ", "ORMRQ", "ORGQL", "ORMQL",
    "ORGBR", "ORMBR", "ORGTR", "ORMTR", "ORGHR", "ORMHR", "HSEQR", "HSEIN", "TREVC", "TREXC",
    "TRSEN", "TRSNA", "TRSYL", "GGBAL", "GGBAK", "GGHRD", "TGEVC", "TGEXC", "TGSEN", "TGSJA",
    "TGSNA", "TGSYL", "GELSY", "GETC2", "GESC2", "LATRS", "LATRD", "LAUUM", "LAULN", "LAHQR",
    "LAHRD", "STEQR", "STEDC", "STEIN", "STEBZ", "STERF", "PTEQR", "BDSQR", "BDSDC",
];

/// The four standard precision prefixes.
const PRECISIONS: &[&str] = &["S", "D", "C", "Z"];

/// Genuine Sun S3L routine names (the Figure 8 hot-spot family).
const S3L_NAMES: &[&str] = &[
    "S3L_mat_mult",
    "S3L_matvec_mult",
    "S3L_mat_trans",
    "S3L_mat_vec_mult",
    "S3L_inner_prod",
    "S3L_outer_prod",
    "S3L_norm",
    "S3L_axpy",
    "S3L_lu_factor",
    "S3L_lu_solve",
    "S3L_lu_invert",
    "S3L_lu_deallocate",
    "S3L_qr_factor",
    "S3L_qr_solve",
    "S3L_cholesky_factor",
    "S3L_cholesky_solve",
    "S3L_eigen",
    "S3L_eigen_vec",
    "S3L_sym_eigen",
    "S3L_gen_eigen",
    "S3L_fft",
    "S3L_ifft",
    "S3L_fft_setup",
    "S3L_fft_free",
    "S3L_rc_fft",
    "S3L_cr_fft",
    "S3L_sort",
    "S3L_sort_up",
    "S3L_sort_down",
    "S3L_sort_detailed",
    "S3L_grade_up",
    "S3L_grade_down",
    "S3L_rank",
    "S3L_gen_lsq",
    "S3L_gen_svd",
    "S3L_gen_band_factor",
    "S3L_gen_band_solve",
    "S3L_gen_trid_factor",
    "S3L_gen_trid_solve",
    "S3L_rand_fib",
    "S3L_rand_lcg",
    "S3L_declare",
    "S3L_free",
    "S3L_read_array",
    "S3L_write_array",
    "S3L_print_array",
    "S3L_copy_array",
    "S3L_set_array_element",
    "S3L_get_array_element",
    "S3L_reduce",
    "S3L_reduce_axis",
    "S3L_scan",
    "S3L_shift",
    "S3L_transpose",
    "S3L_walsh",
    "S3L_conv",
    "S3L_deconv",
    "S3L_acorr",
    "S3L_xcorr",
];

/// A named collection of service keys.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// The keys, sorted and deduplicated.
    pub keys: Vec<Key>,
}

impl Corpus {
    fn build(name: &'static str, mut raw: Vec<String>) -> Self {
        raw.sort();
        raw.dedup();
        Corpus {
            name,
            keys: raw.into_iter().map(Key::from).collect(),
        }
    }

    /// The BLAS naming grid: precision × operation (≈ 130 routines).
    pub fn blas() -> Self {
        let raw = PRECISIONS
            .iter()
            .flat_map(|p| BLAS_ROOTS.iter().map(move |r| format!("{p}{r}")))
            .collect();
        Corpus::build("BLAS", raw)
    }

    /// LAPACK drivers/computational routines, precision-expanded.
    pub fn lapack() -> Self {
        let raw = PRECISIONS
            .iter()
            .flat_map(|p| LAPACK_ROOTS.iter().map(move |r| format!("{p}{r}")))
            .collect();
        Corpus::build("LAPACK", raw)
    }

    /// ScaLAPACK: the parallel "P"-prefixed counterparts — the second
    /// hot-spot family of Figure 8 ("functions begin with P").
    pub fn scalapack() -> Self {
        let raw = PRECISIONS
            .iter()
            .flat_map(|p| {
                BLAS_ROOTS
                    .iter()
                    .chain(LAPACK_ROOTS.iter())
                    .map(move |r| format!("P{p}{r}"))
            })
            .collect();
        Corpus::build("ScaLAPACK", raw)
    }

    /// Sun S3L — the first hot-spot family of Figure 8 ("most of S3L
    /// routines are named by a string beginning by S3L").
    pub fn s3l() -> Self {
        Corpus::build("S3L", S3L_NAMES.iter().map(|s| s.to_string()).collect())
    }

    /// The full grid corpus used by the experiments: BLAS + LAPACK +
    /// ScaLAPACK + S3L (≈ 1000 keys, matching the paper's "number of
    /// nodes around 1000").
    pub fn grid() -> Self {
        let mut raw: Vec<String> = Vec::new();
        for c in [
            Corpus::blas(),
            Corpus::lapack(),
            Corpus::scalapack(),
            Corpus::s3l(),
        ] {
            raw.extend(c.keys.iter().map(|k| k.to_string()));
        }
        Corpus::build("grid", raw)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff the corpus has no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Indices of keys extending `prefix` (the hot-spot region).
    pub fn indices_with_prefix(&self, prefix: &Key) -> Vec<usize> {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, k)| prefix.is_prefix_of(k))
            .map(|(i, _)| i)
            .collect()
    }

    /// A deterministic sub-sample of `n` keys (every ⌈len/n⌉-th key),
    /// for scaled-down benches.
    pub fn take_spread(&self, n: usize) -> Vec<Key> {
        if n == 0 || self.keys.is_empty() {
            return Vec::new();
        }
        if n >= self.keys.len() {
            return self.keys.clone();
        }
        let step = self.keys.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.keys[(i as f64 * step) as usize].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blas_contains_classics() {
        let c = Corpus::blas();
        for name in ["DGEMM", "SGEMV", "ZTRSM", "SAXPY", "DDOT"] {
            assert!(c.keys.contains(&Key::from(name)), "{name}");
        }
        assert!(c.len() > 100, "got {}", c.len());
    }

    #[test]
    fn scalapack_keys_start_with_p() {
        let c = Corpus::scalapack();
        assert!(c.keys.iter().all(|k| k.as_bytes()[0] == b'P'));
        assert!(c.keys.contains(&Key::from("PDGESV")));
        assert!(c.len() > 250);
    }

    #[test]
    fn s3l_keys_share_prefix() {
        let c = Corpus::s3l();
        let p = Key::from("S3L");
        assert!(c.keys.iter().all(|k| p.is_prefix_of(k)));
        assert!(c.len() >= 50);
    }

    #[test]
    fn grid_corpus_is_paper_scale() {
        let c = Corpus::grid();
        assert!(
            (800..=1400).contains(&c.len()),
            "grid corpus should be ≈1000 keys, got {}",
            c.len()
        );
        // Sorted and unique.
        let mut sorted = c.keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, c.keys);
        // All three experiment families present.
        assert!(!c.indices_with_prefix(&Key::from("S3L")).is_empty());
        assert!(!c.indices_with_prefix(&Key::from("P")).is_empty());
        assert!(!c.indices_with_prefix(&Key::from("D")).is_empty());
    }

    #[test]
    fn prefix_indices_match_manual_scan() {
        let c = Corpus::grid();
        let p = Key::from("S3L");
        let idx = c.indices_with_prefix(&p);
        assert_eq!(idx.len(), Corpus::s3l().len());
        for i in idx {
            assert!(p.is_prefix_of(&c.keys[i]));
        }
    }

    #[test]
    fn take_spread_bounds() {
        let c = Corpus::grid();
        assert_eq!(c.take_spread(0).len(), 0);
        assert_eq!(c.take_spread(10).len(), 10);
        assert_eq!(c.take_spread(10_000).len(), c.len());
        // Spread picks distinct keys.
        let picked = c.take_spread(50);
        let mut dedup = picked.clone();
        dedup.dedup();
        assert_eq!(picked.len(), dedup.len());
    }
}
