//! Mesh export: legacy VTK and CSV, for inspection in ParaView/VisIt.
//!
//! Each format has one writer that streams rows into any [`Write`]:
//! [`write_vtk`] and [`write_cells_csv`] hand it a buffered file, [`to_vtk`]
//! and [`cells_csv`] a byte vector, so a file never exists twice in memory.

use crate::mesh::Mesh;
use std::io::{self, Write};
use std::path::Path;

/// Serialises the mesh as a legacy-VTK unstructured grid (hexahedral cells,
/// one per finite-volume cell) with `tau`, `depth` and optional `domain`
/// cell-data arrays. Corners are emitted per cell (8 points each, not
/// deduplicated) — simple and robust for visualisation purposes.
pub fn to_vtk(mesh: &Mesh, part: Option<&[u32]>) -> String {
    let mut out = Vec::new();
    vtk_rows(mesh, part, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("VTK rows are ASCII")
}

/// Writes [`to_vtk`]'s bytes to a file, row by row through a buffer.
pub fn write_vtk(mesh: &Mesh, part: Option<&[u32]>, path: &Path) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    vtk_rows(mesh, part, &mut f)?;
    f.flush()
}

fn vtk_rows(mesh: &Mesh, part: Option<&[u32]>, out: &mut impl Write) -> io::Result<()> {
    if let Some(p) = part {
        assert_eq!(p.len(), mesh.n_cells(), "one domain per cell");
    }
    let n = mesh.n_cells();
    out.write_all(b"# vtk DataFile Version 3.0\n")?;
    out.write_all(b"tempart mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n")?;
    writeln!(out, "POINTS {} double", 8 * n)?;
    for cell in mesh.cells() {
        let h = cell.volume().cbrt() / 2.0;
        let [cx, cy, cz] = cell.centroid;
        // VTK_HEXAHEDRON corner order.
        for (dx, dy, dz) in [
            (-1.0, -1.0, -1.0),
            (1.0, -1.0, -1.0),
            (1.0, 1.0, -1.0),
            (-1.0, 1.0, -1.0),
            (-1.0, -1.0, 1.0),
            (1.0, -1.0, 1.0),
            (1.0, 1.0, 1.0),
            (-1.0, 1.0, 1.0),
        ] {
            writeln!(out, "{} {} {}", cx + dx * h, cy + dy * h, cz + dz * h)?;
        }
    }
    writeln!(out, "CELLS {} {}", n, 9 * n)?;
    for c in 0..n {
        let b = 8 * c;
        writeln!(
            out,
            "8 {} {} {} {} {} {} {} {}",
            b,
            b + 1,
            b + 2,
            b + 3,
            b + 4,
            b + 5,
            b + 6,
            b + 7
        )?;
    }
    writeln!(out, "CELL_TYPES {n}")?;
    for _ in 0..n {
        out.write_all(b"12\n")?; // VTK_HEXAHEDRON
    }
    writeln!(out, "CELL_DATA {n}")?;
    out.write_all(b"SCALARS tau int 1\nLOOKUP_TABLE default\n")?;
    for &t in mesh.tau() {
        writeln!(out, "{t}")?;
    }
    out.write_all(b"SCALARS depth int 1\nLOOKUP_TABLE default\n")?;
    for cell in mesh.cells() {
        writeln!(out, "{}", cell.depth)?;
    }
    if let Some(p) = part {
        out.write_all(b"SCALARS domain int 1\nLOOKUP_TABLE default\n")?;
        for &d in p {
            writeln!(out, "{d}")?;
        }
    }
    Ok(())
}

/// Serialises per-cell data as CSV: `cell,x,y,z,volume,depth,tau[,domain]`.
pub fn cells_csv(mesh: &Mesh, part: Option<&[u32]>) -> String {
    let mut out = Vec::new();
    csv_rows(mesh, part, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV rows are ASCII")
}

/// Writes [`cells_csv`]'s bytes to a file, row by row through a buffer.
pub fn write_cells_csv(mesh: &Mesh, part: Option<&[u32]>, path: &Path) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    csv_rows(mesh, part, &mut f)?;
    f.flush()
}

fn csv_rows(mesh: &Mesh, part: Option<&[u32]>, out: &mut impl Write) -> io::Result<()> {
    out.write_all(if part.is_some() {
        b"cell,x,y,z,volume,depth,tau,domain\n"
    } else {
        b"cell,x,y,z,volume,depth,tau\n"
    })?;
    for (i, cell) in mesh.cells().iter().enumerate() {
        write!(
            out,
            "{},{},{},{},{},{},{}",
            i,
            cell.centroid[0],
            cell.centroid[1],
            cell.centroid[2],
            cell.volume(),
            cell.depth,
            mesh.tau()[i]
        )?;
        if let Some(p) = part {
            write!(out, ",{}", p[i])?;
        }
        out.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::{Octree, OctreeConfig};
    use crate::temporal::TemporalScheme;

    fn tiny() -> Mesh {
        let cfg = OctreeConfig {
            base_depth: 1,
            max_depth: 1,
        };
        let mut m = Mesh::from_octree(&Octree::build(&cfg, |_, _, _| false));
        TemporalScheme::new(1).assign(&mut m);
        m
    }

    #[test]
    fn vtk_structure() {
        let m = tiny();
        let s = to_vtk(&m, None);
        assert!(s.starts_with("# vtk DataFile Version 3.0"));
        assert!(s.contains("POINTS 64 double"));
        assert!(s.contains("CELLS 8 72"));
        assert!(s.contains("SCALARS tau int 1"));
        assert!(!s.contains("SCALARS domain"));
        // 8 hexahedron type codes after the CELL_TYPES header.
        let types = s.split("CELL_TYPES 8\n").nth(1).unwrap();
        let codes: Vec<&str> = types.lines().take_while(|l| *l == "12").collect();
        assert_eq!(codes.len(), 8);
    }

    #[test]
    fn vtk_with_domains() {
        let m = tiny();
        let part = vec![0u32, 0, 1, 1, 2, 2, 3, 3];
        let s = to_vtk(&m, Some(&part));
        assert!(s.contains("SCALARS domain int 1"));
        assert!(s.trim_end().ends_with('3'));
    }

    #[test]
    fn csv_rows() {
        let m = tiny();
        let s = cells_csv(&m, None);
        assert_eq!(s.lines().count(), 9);
        assert!(s
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("0,0.25,0.25,0.25,0.125,1,0"));
    }

    #[test]
    fn streamed_file_equals_the_string_export() {
        let m = crate::generators::cylinder_like(&crate::GeneratorConfig { base_depth: 3 });
        let part: Vec<u32> = (0..m.n_cells() as u32).map(|c| c % 7).collect();
        let path =
            std::env::temp_dir().join(format!("tempart_vtk_stream_{}.vtk", std::process::id()));
        write_vtk(&m, Some(&part), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, to_vtk(&m, Some(&part)).into_bytes());
    }

    #[test]
    fn streamed_csv_equals_the_string_export() {
        let m = crate::generators::cylinder_like(&crate::GeneratorConfig { base_depth: 3 });
        let part: Vec<u32> = (0..m.n_cells() as u32).map(|c| c % 7).collect();
        for part in [None, Some(&part[..])] {
            let path = std::env::temp_dir().join(format!(
                "tempart_csv_stream_{}_{}.csv",
                std::process::id(),
                part.is_some()
            ));
            write_cells_csv(&m, part, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(bytes, cells_csv(&m, part).into_bytes());
        }
    }

    #[test]
    fn write_roundtrip() {
        let m = tiny();
        let dir = std::env::temp_dir().join("tempart_vtk_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mesh.vtk");
        write_vtk(&m, None, &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("UNSTRUCTURED_GRID"));
        std::fs::remove_file(&path).ok();
    }
}
