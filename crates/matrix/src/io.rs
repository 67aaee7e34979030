//! Matrix Market (`.mtx`) reading and writing.
//!
//! Supports the `matrix coordinate` class with `real`, `integer`, and
//! `pattern` fields and `general`/`symmetric` symmetry — enough to load
//! every SuiteSparse matrix the paper uses, so a user with the actual
//! collection can feed it straight into the pipeline.

use crate::coo::DupPolicy;
use crate::{Coo, Csr, MatrixError, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Value field of the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    /// Pattern files carry no values; entries are read as 1.0.
    Pattern,
}

/// Symmetry of the Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    /// Off-diagonal entries are mirrored across the diagonal.
    Symmetric,
}

/// Largest row or column count a matrix can declare: indices are
/// stored as `u32`.
const MAX_DIM: usize = u32::MAX as usize + 1;

/// Most triplets preallocated from the header; a file that really has
/// more grows the buffers as it is read, so a lying header cannot make
/// the reader allocate before any entry arrives.
const MAX_PREALLOC: usize = 1 << 20;

/// Reads a Matrix Market file from disk into CSR.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<Csr> {
    let f = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(f))
}

/// Reads Matrix Market data from any reader into CSR.
pub fn read_matrix_market_from<R: Read>(reader: R) -> Result<Csr> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines.next().ok_or_else(|| MatrixError::Parse("empty file".into()))??;
    let head: Vec<&str> = header.split_whitespace().collect();
    if head.len() < 5 || !head[0].starts_with("%%MatrixMarket") {
        return Err(MatrixError::Parse(format!("bad header line: {header}")));
    }
    if !head[1].eq_ignore_ascii_case("matrix") || !head[2].eq_ignore_ascii_case("coordinate") {
        return Err(MatrixError::Parse(format!(
            "only 'matrix coordinate' is supported, got '{} {}'",
            head[1], head[2]
        )));
    }
    let field = match head[3].to_ascii_lowercase().as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(MatrixError::Parse(format!("unsupported field '{other}'"))),
    };
    let symmetry = match head[4].to_ascii_lowercase().as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(MatrixError::Parse(format!("unsupported symmetry '{other}'"))),
    };

    // Skip comments, then read the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| MatrixError::Parse("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|e| MatrixError::Parse(e.to_string())))
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(MatrixError::Parse(format!("bad size line: {size_line}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if nrows > MAX_DIM || ncols > MAX_DIM {
        return Err(MatrixError::Parse(format!(
            "size {nrows} x {ncols} exceeds the u32 index range ({MAX_DIM} rows or columns)"
        )));
    }
    if nrows.checked_mul(ncols).is_some_and(|cells| nnz > cells) {
        return Err(MatrixError::Parse(format!(
            "header declares {nnz} entries in a {nrows} x {ncols} matrix"
        )));
    }
    // Symmetric files store each off-diagonal entry twice; the triplet
    // buffer indexes its entries with u32.
    let stored = if symmetry == Symmetry::Symmetric { nnz.saturating_mul(2) } else { nnz };
    if stored > MAX_DIM {
        return Err(MatrixError::Parse(format!(
            "{nnz} entries exceed the u32 triplet index range"
        )));
    }

    let mut coo = Coo::with_capacity(nrows, ncols, stored.min(MAX_PREALLOC));
    let mut read = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| MatrixError::Parse(format!("bad entry: {t}")))?
            .parse()
            .map_err(|e: std::num::ParseIntError| MatrixError::Parse(e.to_string()))?;
        let c: usize = it
            .next()
            .ok_or_else(|| MatrixError::Parse(format!("bad entry: {t}")))?
            .parse()
            .map_err(|e: std::num::ParseIntError| MatrixError::Parse(e.to_string()))?;
        let v: f64 = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .ok_or_else(|| MatrixError::Parse(format!("missing value: {t}")))?
                .parse()
                .map_err(|e: std::num::ParseFloatError| MatrixError::Parse(e.to_string()))?,
        };
        if r == 0 || c == 0 {
            return Err(MatrixError::Parse("matrix market indices are 1-based".into()));
        }
        if read == nnz {
            return Err(MatrixError::Parse(format!(
                "header declared {nnz} entries but file has more"
            )));
        }
        coo.push(r - 1, c - 1, v)?;
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c - 1, r - 1, v)?;
        }
        read += 1;
    }
    if read != nnz {
        return Err(MatrixError::Parse(format!(
            "header declared {nnz} entries but file had {read}"
        )));
    }
    Ok(coo.to_csr(DupPolicy::Sum))
}

/// Writes a CSR matrix as `matrix coordinate real general`.
pub fn write_matrix_market(m: &Csr, path: impl AsRef<Path>) -> Result<()> {
    let f = std::fs::File::create(path)?;
    write_matrix_market_to(m, BufWriter::new(f))
}

/// Writes Matrix Market data to any writer.
pub fn write_matrix_market_to<W: Write>(m: &Csr, mut w: W) -> Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by wise-matrix")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for r in 0..m.nrows() {
        for (c, v) in m.row(r) {
            writeln!(w, "{} {} {:e}", r + 1, c + 1, v)?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_str(s: &str) -> Result<Csr> {
        read_matrix_market_from(s.as_bytes())
    }

    #[test]
    fn parses_general_real() {
        let m = read_str(
            "%%MatrixMarket matrix coordinate real general\n\
             % a comment\n\
             3 3 3\n\
             1 1 2.0\n\
             2 3 -1.5\n\
             3 1 4.0\n",
        )
        .unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_vals(1), &[-1.5]);
    }

    #[test]
    fn parses_pattern() {
        let m = read_str(
            "%%MatrixMarket matrix coordinate pattern general\n\
             2 2 2\n\
             1 2\n\
             2 1\n",
        )
        .unwrap();
        assert_eq!(m.row_vals(0), &[1.0]);
        assert_eq!(m.row_vals(1), &[1.0]);
    }

    #[test]
    fn symmetric_mirrors_offdiagonal() {
        let m = read_str(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             3 3 3\n\
             1 1 1.0\n\
             2 1 2.0\n\
             3 2 3.0\n",
        )
        .unwrap();
        assert_eq!(m.nnz(), 5); // diag kept once; two mirrored pairs
        assert_eq!(m.row_cols(0), &[0, 1]);
        assert_eq!(m.row_cols(1), &[0, 2]);
    }

    #[test]
    fn rejects_count_mismatch() {
        let e = read_str(
            "%%MatrixMarket matrix coordinate real general\n\
             2 2 2\n\
             1 1 1.0\n",
        );
        assert!(e.is_err());
    }

    #[test]
    fn rejects_zero_based_indices() {
        let e = read_str(
            "%%MatrixMarket matrix coordinate real general\n\
             2 2 1\n\
             0 1 1.0\n",
        );
        assert!(e.is_err());
    }

    #[test]
    fn rejects_unsupported_format() {
        assert!(read_str("%%MatrixMarket matrix array real general\n1 1\n1.0\n").is_err());
        assert!(read_str("%%MatrixMarket matrix coordinate complex general\n1 1 0\n").is_err());
    }

    fn assert_parse_error(text: &str) {
        let e = read_str(text).unwrap_err();
        assert!(matches!(e, MatrixError::Parse(_)), "{e:?}");
    }

    #[test]
    fn rejects_entry_count_beyond_matrix_cells() {
        // Would otherwise preallocate 10^12 triplets before reading.
        assert_parse_error(
            "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 1.0\n",
        );
    }

    #[test]
    fn rejects_symmetric_entry_count_that_overflows() {
        assert_parse_error(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 18446744073709551615\n1 1 1.0\n",
        );
    }

    #[test]
    fn rejects_dimensions_beyond_u32_indices() {
        assert_parse_error("%%MatrixMarket matrix coordinate real general\n1099511627776 2 0\n");
        assert_parse_error("%%MatrixMarket matrix coordinate real general\n2 4294967297 0\n");
    }

    #[test]
    fn rejects_more_entries_than_declared() {
        assert_parse_error(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
        );
    }

    #[test]
    fn rejects_truncated_file() {
        // Cut mid-entry: the last line lost its value.
        assert_parse_error("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2");
        // Cut in the size line.
        assert_parse_error("%%MatrixMarket matrix coordinate real general\n3 3");
    }

    #[test]
    fn roundtrip() {
        let mut coo = Coo::new(4, 5);
        coo.push(0, 4, 1.25).unwrap();
        coo.push(3, 0, -2.0).unwrap();
        coo.push(1, 2, 0.5).unwrap();
        let m = coo.to_csr(DupPolicy::Sum);
        let mut buf = Vec::new();
        write_matrix_market_to(&m, &mut buf).unwrap();
        let back = read_matrix_market_from(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("wise_matrix_io_test.mtx");
        let m = Csr::identity(6);
        write_matrix_market(&m, &path).unwrap();
        let back = read_matrix_market(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_file(&path);
    }
}
