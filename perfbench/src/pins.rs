//! Pinned per-cell fingerprints of both sweep workloads.
//!
//! Each entry is the FNV-1a hash of one cell's section of the merged
//! report (`sweeps::cell_section`), for every family, size and pool
//! guest seed the workloads can generate. The table was produced by
//! `perfbench pins`, which profiles every cell through the reference
//! interpreter (`DecodeMode::Off`, per-event delivery) — not the decoded,
//! batched path the benchmark times — and `perfbench pins --check`
//! re-runs that reference and compares it with the table.

use crate::sweeps::{cell_section, DYNAMIC_GRID, GUEST_SEEDS, SORT_SIZES};
use drms::sched::fnv1a;
use drms::vm::DecodeMode;
use drms_bench::supervisor::{profile_cell, run_supervised_with, SupervisorOptions};
use drms_bench::sweep::SweepSpec;
use std::collections::BTreeMap;

/// Fingerprints keyed by `(family, size, guest seed)`.
#[derive(Clone, Debug, Default)]
pub struct Pins(BTreeMap<(String, i64, u64), u64>);

impl Pins {
    /// The committed table.
    pub fn committed() -> Pins {
        Pins::from_rows(TABLE)
    }

    /// A table from `(family, size, seed, fingerprint)` rows.
    pub fn from_rows(rows: &[(&str, i64, u64, u64)]) -> Pins {
        Pins(
            rows.iter()
                .map(|&(f, size, seed, fp)| ((f.to_string(), size, seed), fp))
                .collect(),
        )
    }

    /// The pinned fingerprint of one cell.
    pub fn get(&self, family: &str, size: i64, seed: u64) -> Option<u64> {
        self.0.get(&(family.to_string(), size, seed)).copied()
    }
}

/// Every `(family, sizes)` grid the sweep workloads can run.
fn grids() -> Vec<(&'static str, Vec<i64>)> {
    let mut grids = vec![("sort", SORT_SIZES.to_vec())];
    grids.extend(DYNAMIC_GRID.iter().map(|(f, s)| (*f, s.to_vec())));
    grids
}

/// Profiles every pinnable cell through the reference interpreter and
/// returns the rows, in table order.
pub fn reference_rows(jobs: usize) -> Vec<(String, i64, u64, u64)> {
    let opts = SupervisorOptions {
        decode: Some(DecodeMode::Off),
        ..SupervisorOptions::default()
    };
    let mut rows = Vec::new();
    for (family, sizes) in grids() {
        let spec = SweepSpec::new(family, &sizes, jobs).seeds(&GUEST_SEEDS);
        let result = run_supervised_with(&spec, &opts, None, &profile_cell);
        assert!(
            result.quarantined.is_empty(),
            "{family}: reference cell quarantined"
        );
        for cell in &result.cells {
            let fp = fnv1a(cell_section(family, cell).as_bytes());
            rows.push((family.to_string(), cell.size, cell.seed, fp));
        }
    }
    rows
}

/// `perfbench pins`: prints the reference table as Rust rows, or with
/// `check` compares it with the committed table and returns whether
/// every row matches.
pub fn command(check: bool) -> bool {
    let committed = Pins::committed();
    let mut ok = true;
    for (family, size, seed, fp) in reference_rows(crate::stats::nproc()) {
        if check {
            if committed.get(&family, size, seed) != Some(fp) {
                ok = false;
                println!("MISMATCH {family} size={size} seed={seed}: reference {fp:#018x}");
            }
        } else {
            println!("    (\"{family}\", {size}, {seed}, {fp:#018x}),");
        }
    }
    if check {
        println!("pins: {}", if ok { "all rows match" } else { "mismatch" });
    }
    ok
}

/// `(family, size, guest seed, fingerprint)`.
const TABLE: &[(&str, i64, u64, u64)] = &[
    ("sort", 96, 1, 0x35d8081bd8e69a9e),
    ("sort", 96, 2, 0x0b87061aa25a1af7),
    ("sort", 96, 3, 0x63cd500df43e3fbc),
    ("sort", 96, 4, 0x51f496512daa003b),
    ("sort", 96, 5, 0xe518e961bb98cc3e),
    ("sort", 96, 6, 0x8445e48c15462135),
    ("sort", 96, 7, 0xf8d1ebbf2e2ea784),
    ("sort", 96, 8, 0x764ab5a008974c55),
    ("sort", 88, 1, 0xa9d91ddaa7481899),
    ("sort", 88, 2, 0x719dd774a4ba188c),
    ("sort", 88, 3, 0x382a6b92fe8dfef9),
    ("sort", 88, 4, 0x9d06c4b184b427b6),
    ("sort", 88, 5, 0xa444bf36b1b284b9),
    ("sort", 88, 6, 0x4de74f28e09e1ff4),
    ("sort", 88, 7, 0x8c4d334b04873609),
    ("sort", 88, 8, 0x5818f1860471503e),
    ("sort", 80, 1, 0x6a53dc0cf39bf639),
    ("sort", 80, 2, 0xd3dd39c10b183608),
    ("sort", 80, 3, 0xf2d8675e77e27d51),
    ("sort", 80, 4, 0x44d36cae1966f354),
    ("sort", 80, 5, 0x31126a458d415083),
    ("sort", 80, 6, 0xe5c0a2751edd61b6),
    ("sort", 80, 7, 0x92752e54c44c7619),
    ("sort", 80, 8, 0xb5a1ca0b105edc42),
    ("sort", 72, 1, 0x6fb52712f6a0ef3d),
    ("sort", 72, 2, 0xfe6518bcf7dcd24c),
    ("sort", 72, 3, 0xfca69f0e42d59879),
    ("sort", 72, 4, 0x7d7249ffb488ee34),
    ("sort", 72, 5, 0xb2329b0b5064f3db),
    ("sort", 72, 6, 0x4f53b2bb7b4aba72),
    ("sort", 72, 7, 0xa88b6ebf798c5b39),
    ("sort", 72, 8, 0x17fe3ec9074e92d8),
    ("sort", 64, 1, 0xc8afb8b59638dc3c),
    ("sort", 64, 2, 0xd0b0d2625876db0b),
    ("sort", 64, 3, 0x5b18cd4f0f2883ca),
    ("sort", 64, 4, 0x0d7f5d69b292d4e3),
    ("sort", 64, 5, 0xcafa0a779f88beb6),
    ("sort", 64, 6, 0x719930d82150c973),
    ("sort", 64, 7, 0x49fbc1e545c0d526),
    ("sort", 64, 8, 0x85216295c2dd94b9),
    ("minidb", 2048, 1, 0x66cb0c81a432f625),
    ("minidb", 2048, 2, 0x1f850c753e9760f4),
    ("minidb", 2048, 3, 0x06075532fe29e76b),
    ("minidb", 2048, 4, 0x8c93c132293f78ca),
    ("minidb", 2048, 5, 0x731a2686a8d3e649),
    ("minidb", 2048, 6, 0x7d15b681efe5b068),
    ("minidb", 2048, 7, 0xa6df6b5c6d7c0b0f),
    ("minidb", 2048, 8, 0xc2bfbacb33d8efce),
    ("minidb", 4096, 1, 0xb467c3240737b567),
    ("minidb", 4096, 2, 0xcb6f8798ed5f09a8),
    ("minidb", 4096, 3, 0xc50800c2a4ca4e5d),
    ("minidb", 4096, 4, 0xbfecd82d4ea5aec6),
    ("minidb", 4096, 5, 0xea696c7c931258eb),
    ("minidb", 4096, 6, 0xc2800957893ad87c),
    ("minidb", 4096, 7, 0x5b4c70f4ed4c6111),
    ("minidb", 4096, 8, 0xc0d4ea8f6ba110aa),
    ("minidb", 8192, 1, 0x89ef226d281a73df),
    ("minidb", 8192, 2, 0x5c5641622f4368d4),
    ("minidb", 8192, 3, 0x9e69d027f73a9941),
    ("minidb", 8192, 4, 0xce94f56ad48a8f9e),
    ("minidb", 8192, 5, 0x9da0c5ab6ed1bf73),
    ("minidb", 8192, 6, 0x0d1cf95d8b112f68),
    ("minidb", 8192, 7, 0xc773f504c2a8ab35),
    ("minidb", 8192, 8, 0xf47f72e0d6395f22),
    ("minidb", 16384, 1, 0xe6b4310c505afe08),
    ("minidb", 16384, 2, 0xd49803960a4acf75),
    ("minidb", 16384, 3, 0x9bbf6e93aa177d32),
    ("minidb", 16384, 4, 0xc614f686fa5f04d7),
    ("minidb", 16384, 5, 0xc64bec21ec323e84),
    ("minidb", 16384, 6, 0x0826ec0f2dc53151),
    ("minidb", 16384, 7, 0x19cc0eaa44d659ee),
    ("minidb", 16384, 8, 0xc0d5401fae0bce43),
    ("minidb", 32768, 1, 0xa640aebd18ed37c9),
    ("minidb", 32768, 2, 0x1432c86d26fc8586),
    ("minidb", 32768, 3, 0x23e84a210a4d1fff),
    ("minidb", 32768, 4, 0x9a60187c4ba243cc),
    ("minidb", 32768, 5, 0x2f73f1586595f7f5),
    ("minidb", 32768, 6, 0x6e7c341e4be92f62),
    ("minidb", 32768, 7, 0xd38150ea97ad9d4b),
    ("minidb", 32768, 8, 0xb83d2e8cafefe218),
    ("mysqlslap", 512, 1, 0xab16293edd5d186c),
    ("mysqlslap", 512, 2, 0x6ceadeb884484078),
    ("mysqlslap", 512, 3, 0x1095d4d16b5c3254),
    ("mysqlslap", 512, 4, 0x1afab5a9a0885184),
    ("mysqlslap", 512, 5, 0x0d7ddd0bc0e4913a),
    ("mysqlslap", 512, 6, 0x7bd69dd46a342f7c),
    ("mysqlslap", 512, 7, 0x093c433059ef6df5),
    ("mysqlslap", 512, 8, 0x600ffacf89ab8060),
    ("mysqlslap", 1024, 1, 0x6b830e65ec4b028d),
    ("mysqlslap", 1024, 2, 0x950881fa8c8fed5d),
    ("mysqlslap", 1024, 3, 0x59898c019e1cc1de),
    ("mysqlslap", 1024, 4, 0x1d1b910e9d980985),
    ("mysqlslap", 1024, 5, 0xcf32bf3a6dadac80),
    ("mysqlslap", 1024, 6, 0x3aa0b941963519ac),
    ("mysqlslap", 1024, 7, 0x325c2ccc5bf7a914),
    ("mysqlslap", 1024, 8, 0x32fe4f7bc325ae54),
    ("mysqlslap", 2048, 1, 0x2eeecde83b37c186),
    ("mysqlslap", 2048, 2, 0x4dfbd889fe5d6033),
    ("mysqlslap", 2048, 3, 0xe50faf0c8d860ae4),
    ("mysqlslap", 2048, 4, 0x859dd0b79fffdc20),
    ("mysqlslap", 2048, 5, 0x9218597ba5d6e945),
    ("mysqlslap", 2048, 6, 0xe852819076d42219),
    ("mysqlslap", 2048, 7, 0x836b891092200a49),
    ("mysqlslap", 2048, 8, 0x2fa42cb584c06b81),
    ("mysqlslap", 4096, 1, 0x425821ed97f45c2b),
    ("mysqlslap", 4096, 2, 0x95e71906e5cccef8),
    ("mysqlslap", 4096, 3, 0x9ac1e1b660409353),
    ("mysqlslap", 4096, 4, 0x808597d4c93fa4f7),
    ("mysqlslap", 4096, 5, 0xbac18fe960513f77),
    ("mysqlslap", 4096, 6, 0x2a1eb7ad9abe94ca),
    ("mysqlslap", 4096, 7, 0x36e513509249f3ee),
    ("mysqlslap", 4096, 8, 0x94f1e9ddd351eab4),
    ("imgpipe", 8, 1, 0xe79e17b2e891a2ea),
    ("imgpipe", 8, 2, 0x61fd54e4c85586df),
    ("imgpipe", 8, 3, 0x619838b1e66c4c50),
    ("imgpipe", 8, 4, 0xb13717e82f1009c5),
    ("imgpipe", 8, 5, 0x61788418b4d6819e),
    ("imgpipe", 8, 6, 0x5ca0d8176d565c03),
    ("imgpipe", 8, 7, 0xc49fc759d1834904),
    ("imgpipe", 8, 8, 0x35d63c80319c8e29),
    ("imgpipe", 16, 1, 0xbcee8ff425eb2988),
    ("imgpipe", 16, 2, 0xbefa480479e386cf),
    ("imgpipe", 16, 3, 0x74fca2b4cbfce3a6),
    ("imgpipe", 16, 4, 0x7df3ba4abb41c25d),
    ("imgpipe", 16, 5, 0xce209762f0589cac),
    ("imgpipe", 16, 6, 0x259400a676ea6ba3),
    ("imgpipe", 16, 7, 0x28a0f2b47889a0fa),
    ("imgpipe", 16, 8, 0x840e37275d371271),
    ("imgpipe", 24, 1, 0x3e27024a883bbb9b),
    ("imgpipe", 24, 2, 0x097584ed6b4665ec),
    ("imgpipe", 24, 3, 0xa913dfa78f3ffeed),
    ("imgpipe", 24, 4, 0x86863000984d7fce),
    ("imgpipe", 24, 5, 0x446f79c441f6b90f),
    ("imgpipe", 24, 6, 0xecb8e9919e72bbf0),
    ("imgpipe", 24, 7, 0x6797666d615122e1),
    ("imgpipe", 24, 8, 0x1fef87df054cd3e2),
    ("imgpipe", 32, 1, 0x813607cf37f57680),
    ("imgpipe", 32, 2, 0x36d40bbab23e5aa7),
    ("imgpipe", 32, 3, 0xc45e0e1415a2cd8e),
    ("imgpipe", 32, 4, 0x81e9012478db92ed),
    ("imgpipe", 32, 5, 0x09caf08ddf445584),
    ("imgpipe", 32, 6, 0x3ae73bfb4156fa4b),
    ("imgpipe", 32, 7, 0xb5ed57fb062ad5c2),
    ("imgpipe", 32, 8, 0x49c284dc439f0bf1),
    ("stream", 8192, 1, 0xae78dfc00e607983),
    ("stream", 8192, 2, 0xb739934cff8407ac),
    ("stream", 8192, 3, 0xa0f8b8b87a33bd39),
    ("stream", 8192, 4, 0x7793e5cba0adb962),
    ("stream", 8192, 5, 0x844fbf665ef77a8f),
    ("stream", 8192, 6, 0x43d9029fe36976a8),
    ("stream", 8192, 7, 0x1f922b82f0046075),
    ("stream", 8192, 8, 0x635ce972c248890e),
    ("stream", 16384, 1, 0x80146c21a2be2ec5),
    ("stream", 16384, 2, 0x50c473cd87faba8e),
    ("stream", 16384, 3, 0x709815aa58eea35b),
    ("stream", 16384, 4, 0xb8f1eb9738a20b0c),
    ("stream", 16384, 5, 0x7521f80f43974c39),
    ("stream", 16384, 6, 0x5c095bef1d6f5842),
    ("stream", 16384, 7, 0x3993270fa8a8856f),
    ("stream", 16384, 8, 0xf01b6636c79e61e0),
    ("stream", 32768, 1, 0x2294850a1169f5b9),
    ("stream", 32768, 2, 0xaf1f11849f3b772a),
    ("stream", 32768, 3, 0xad1111ee6e856417),
    ("stream", 32768, 4, 0xe291273fcfba2e78),
    ("stream", 32768, 5, 0x7c6de7cfce322e75),
    ("stream", 32768, 6, 0x1c083199b3b837a6),
    ("stream", 32768, 7, 0x918a2f1bd8de0703),
    ("stream", 32768, 8, 0x835f6806f27d0574),
    ("stream", 65536, 1, 0x1901e6f378e99fa4),
    ("stream", 65536, 2, 0x527e2a4fa8477a6f),
    ("stream", 65536, 3, 0x5cf59b8aaaa36812),
    ("stream", 65536, 4, 0xc723b2538b56bee5),
    ("stream", 65536, 5, 0x884648a0fdb279c8),
    ("stream", 65536, 6, 0x94142765769d8fb3),
    ("stream", 65536, 7, 0x385f299a742b7e36),
    ("stream", 65536, 8, 0xcb4eb252930eb039),
    ("producer-consumer", 2048, 1, 0xfb53e5b27348290a),
    ("producer-consumer", 2048, 2, 0x1f1deac3bdac149b),
    ("producer-consumer", 2048, 3, 0xc824fbc3c552ebb0),
    ("producer-consumer", 2048, 4, 0x80fd598030872cc9),
    ("producer-consumer", 2048, 5, 0x470b5c9976e9935e),
    ("producer-consumer", 2048, 6, 0x93b1aa8aa63ace3f),
    ("producer-consumer", 2048, 7, 0x8ecea5d1ffb4ff94),
    ("producer-consumer", 2048, 8, 0xd7c4fbbdfc8001ed),
    ("producer-consumer", 4096, 1, 0x867610eee0473634),
    ("producer-consumer", 4096, 2, 0xf867a314fc1678f1),
    ("producer-consumer", 4096, 3, 0x5ac820c7e7b61d1a),
    ("producer-consumer", 4096, 4, 0xec30240ebd2d2b4f),
    ("producer-consumer", 4096, 5, 0xe488ee00c2905560),
    ("producer-consumer", 4096, 6, 0x4e3f6c1967d42fed),
    ("producer-consumer", 4096, 7, 0xc0c722d48c222236),
    ("producer-consumer", 4096, 8, 0xf8b435ac335f14ab),
    ("producer-consumer", 8192, 1, 0xb1648f1ffcf5aa86),
    ("producer-consumer", 8192, 2, 0xc46c621bbe04aa9f),
    ("producer-consumer", 8192, 3, 0x24a7ea2b7e95a880),
    ("producer-consumer", 8192, 4, 0xc554c0e553ab6549),
    ("producer-consumer", 8192, 5, 0x3150455a73903f22),
    ("producer-consumer", 8192, 6, 0x1ff46958a9b4a82b),
    ("producer-consumer", 8192, 7, 0xfa857c4a19adaa6c),
    ("producer-consumer", 8192, 8, 0x2a6ff826a1bdf9c5),
    ("producer-consumer", 16384, 1, 0x07af08502873407a),
    ("producer-consumer", 16384, 2, 0xf94d09211d0e5e11),
    ("producer-consumer", 16384, 3, 0x1bf3f7851a77d610),
    ("producer-consumer", 16384, 4, 0x8a69e06bd47271a7),
    ("producer-consumer", 16384, 5, 0x6d59bc905ae9435e),
    ("producer-consumer", 16384, 6, 0x7269c2db974c5d35),
    ("producer-consumer", 16384, 7, 0xceae777c0cad3e14),
    ("producer-consumer", 16384, 8, 0xbe49a5aa4b01e12b),
];
