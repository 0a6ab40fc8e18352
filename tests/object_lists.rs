//! The solver's object lists are the id lists the domain classification
//! used to build for every caller: the ids of each `(domain, τ, class)` bin
//! are pinned by FNV-1a digests taken before the lists moved out of
//! `DomainDecomposition`, over the three paper cases at base depths 3 and 4
//! and three partitioning strategies, and every bin holds as many ids as the
//! decomposition counts.
//!
//! Run the ignored `derive_pins` test with `--nocapture` to print the
//! digests again.

use tempart::core_api::{decompose, Curve, PartitionStrategy};
use tempart::mesh::{GeneratorConfig, Mesh, MeshCase};
use tempart::taskgraph::{DomainDecomposition, ObjectClass, ObjectLists};

const N_DOMAINS: usize = 16;
const SEED: u64 = 0x5EED;

const STRATEGIES: [PartitionStrategy; 3] = [
    PartitionStrategy::ScOc,
    PartitionStrategy::McTl,
    PartitionStrategy::SfcOc {
        curve: Curve::Hilbert,
    },
];

fn fnv1a(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Every bin in `(domain, τ, class)` order, cells before faces: its length,
/// then its ids. Asserts each length against the decomposition's count.
fn lists_digest(mesh: &Mesh, strategy: PartitionStrategy) -> u64 {
    let part = decompose(mesh, strategy, N_DOMAINS, SEED);
    let dd = DomainDecomposition::new(mesh, &part, N_DOMAINS);
    let lists = ObjectLists::new(mesh, &part, &dd);
    let mut h = FNV_BASIS;
    for d in 0..N_DOMAINS as u32 {
        for tau in 0..dd.n_levels {
            for class in [ObjectClass::Internal, ObjectClass::External] {
                let cells = lists.cells_of(d, tau, class);
                assert_eq!(cells.len(), dd.cell_count(d, tau, class));
                h = fnv1a(h, cells.len() as u64);
                for &c in cells {
                    h = fnv1a(h, u64::from(c));
                }
            }
        }
    }
    for d in 0..N_DOMAINS as u32 {
        for tau in 0..dd.n_levels {
            for class in [ObjectClass::Internal, ObjectClass::External] {
                let faces = lists.faces_of(d, tau, class);
                assert_eq!(faces.len(), dd.face_count(d, tau, class));
                h = fnv1a(h, faces.len() as u64);
                for &f in faces {
                    h = fnv1a(h, u64::from(f));
                }
            }
        }
    }
    h
}

/// `(case, base depth) → [SC_OC, MC_TL, SFC_OC(H)]` digests.
const PINS: [(MeshCase, u8, [u64; 3]); 6] = [
    (
        MeshCase::Cylinder,
        3,
        [0x662fba903a77c647, 0x05dda95384c79ce7, 0xd79027f32dd57c6d],
    ),
    (
        MeshCase::Cylinder,
        4,
        [0xd5bc709473afeb4d, 0x12a5cd9f6764960d, 0xb8989978680a8bb7],
    ),
    (
        MeshCase::Cube,
        3,
        [0x75665cec02299b8d, 0x73a85c50d8e57cf5, 0x4cfaf6b7aadde4f9],
    ),
    (
        MeshCase::Cube,
        4,
        [0x3e455a89055eb4bc, 0xa01a279825bbbdc6, 0x71c7116ab7254692],
    ),
    (
        MeshCase::PprimeNozzle,
        3,
        [0xb21f7f0b585e7027, 0x4561d7a1a21adbc5, 0xfd2e0566004ee10d],
    ),
    (
        MeshCase::PprimeNozzle,
        4,
        [0x65f73c0637d4b28d, 0xc57288b288f8870f, 0xc005b41bcc3290d1],
    ),
];

#[test]
fn object_lists_match_the_pinned_ids() {
    for (case, depth, pins) in PINS {
        let mesh = case.generate(&GeneratorConfig { base_depth: depth });
        for (strategy, pin) in STRATEGIES.into_iter().zip(pins) {
            assert_eq!(
                lists_digest(&mesh, strategy),
                pin,
                "{} depth {depth} {}",
                case.name(),
                strategy.label()
            );
        }
    }
}

#[test]
#[ignore = "prints the pins"]
fn derive_pins() {
    for (case, depth, _) in PINS {
        let mesh = case.generate(&GeneratorConfig { base_depth: depth });
        let pins: Vec<String> = STRATEGIES
            .into_iter()
            .map(|s| format!("{:#018x}", lists_digest(&mesh, s)))
            .collect();
        println!("(MeshCase::{case:?}, {depth}, [{}]),", pins.join(", "));
    }
}
