//! The tower of information (paper §1, Fig. 1) as a BioOpera process.
//!
//! "Starting with the raw DNA": genes are located and translated into
//! protein sequences, proteins are aligned pairwise, distances feed a
//! phylogenetic tree, a multiple alignment yields probabilistic ancestral
//! sequences, and secondary structure is predicted — each storey a task
//! (the alignment and structure storeys are parallel tasks), "every step
//! is a subprocess" in spirit but activities here for clarity.

use crate::bio;
use bioopera_core::{ActivityLibrary, ProgramOutput};
use bioopera_darwin::align::AlignParams;
use bioopera_darwin::pam::PamFamily;
use bioopera_darwin::refine::refine_pam_distance;
use bioopera_darwin::{CostModel, Sequence};
use bioopera_ocr::model::{ExternalBinding, ParallelBody, TypeTag};
use bioopera_ocr::value::Value;
use bioopera_ocr::{ProcessBuilder, ProcessTemplate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The tower process template.
pub fn tower_template() -> ProcessTemplate {
    ProcessBuilder::new("TowerOfInformation")
        .whiteboard_field("dna", TypeTag::Str)
        .whiteboard_default("min_codons", TypeTag::Int, Value::Int(20))
        .whiteboard_field("tree", TypeTag::Str)
        .whiteboard_field("report", TypeTag::Map)
        .activity("GeneFinding", "tower.genefind", |t| {
            t.input("dna", TypeTag::Str)
                .input("min_codons", TypeTag::Int)
                .output("genes", TypeTag::List)
                .retries(1)
        })
        .activity("Translation", "tower.translate", |t| {
            t.input("genes", TypeTag::List)
                .output("proteins", TypeTag::List)
                .output("targets", TypeTag::List)
                .retries(1)
        })
        .parallel(
            "PairwiseAlignments",
            "targets",
            ParallelBody::Activity(ExternalBinding::program("tower.align_one")),
            "rows",
            |t| t.input("proteins", TypeTag::List).retries(2),
        )
        .activity("PhylogeneticTree", "tower.nj", |t| {
            t.input("rows", TypeTag::List)
                .output("tree", TypeTag::Str)
                .retries(1)
        })
        .activity("MultipleAlignment", "tower.msa", |t| {
            t.input("proteins", TypeTag::List)
                .output("msa", TypeTag::List)
                .output("ancestor", TypeTag::Str)
                .retries(1)
        })
        .parallel(
            "StructurePrediction",
            "targets2",
            ParallelBody::Activity(ExternalBinding::program("tower.choufasman")),
            "structures",
            |t| t.input("proteins", TypeTag::List).retries(2),
        )
        .activity("FunctionSummary", "tower.summary", |t| {
            t.input("tree", TypeTag::Str)
                .input("ancestor", TypeTag::Str)
                .input("structures", TypeTag::List)
                .output("report", TypeTag::Map)
        })
        .connect("GeneFinding", "Translation")
        .connect("Translation", "PairwiseAlignments")
        .connect("Translation", "MultipleAlignment")
        .connect("Translation", "StructurePrediction")
        .connect("PairwiseAlignments", "PhylogeneticTree")
        .connect("PhylogeneticTree", "FunctionSummary")
        .connect("MultipleAlignment", "FunctionSummary")
        .connect("StructurePrediction", "FunctionSummary")
        .flow_from_whiteboard("dna", "GeneFinding", "dna")
        .flow_from_whiteboard("min_codons", "GeneFinding", "min_codons")
        .flow_to_task("GeneFinding", "genes", "Translation", "genes")
        .flow_to_task("Translation", "targets", "PairwiseAlignments", "targets")
        .flow_to_task("Translation", "proteins", "PairwiseAlignments", "proteins")
        .flow_to_task("Translation", "targets", "StructurePrediction", "targets2")
        .flow_to_task("Translation", "proteins", "StructurePrediction", "proteins")
        .flow_to_task("Translation", "proteins", "MultipleAlignment", "proteins")
        .flow_to_task("PairwiseAlignments", "rows", "PhylogeneticTree", "rows")
        .flow_to_task("PhylogeneticTree", "tree", "FunctionSummary", "tree")
        .flow_to_whiteboard("PhylogeneticTree", "tree", "tree")
        .flow_to_task(
            "MultipleAlignment",
            "ancestor",
            "FunctionSummary",
            "ancestor",
        )
        .flow_to_task(
            "StructurePrediction",
            "structures",
            "FunctionSummary",
            "structures",
        )
        .flow_to_whiteboard("FunctionSummary", "report", "report")
        .build()
        .expect("tower template is valid")
}

fn proteins_from(inputs: &BTreeMap<String, Value>) -> Result<Vec<String>, String> {
    inputs
        .get("proteins")
        .and_then(|v| v.as_list())
        .map(|l| {
            l.iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect()
        })
        .ok_or_else(|| "missing proteins".to_string())
}

/// The activity library for the tower.
pub fn tower_library(pam: Arc<PamFamily>, cost: CostModel) -> ActivityLibrary {
    let mut lib = ActivityLibrary::new();

    lib.register("tower.genefind", move |inputs| {
        let dna_str = inputs
            .get("dna")
            .and_then(|v| v.as_str())
            .ok_or_else(|| "genefind needs dna".to_string())?;
        let dna = bio::parse_dna(dna_str).ok_or_else(|| "dna has non-ACGT letters".to_string())?;
        let min = inputs
            .get("min_codons")
            .and_then(|v| v.as_int())
            .unwrap_or(20) as usize;
        let orfs = bio::find_orfs(&dna, min);
        let genes: Vec<Value> = orfs
            .iter()
            .map(|o| Value::from(bio::dna_to_string(&dna[o.start..o.end])))
            .collect();
        if genes.is_empty() {
            return Err("no open reading frames found".to_string());
        }
        Ok(ProgramOutput::from_fields(
            [("genes", Value::List(genes))],
            dna.len() as f64 * 0.02 + 500.0,
        ))
    });

    lib.register("tower.translate", move |inputs| {
        let genes = inputs
            .get("genes")
            .and_then(|v| v.as_list())
            .ok_or_else(|| "translate needs genes".to_string())?;
        let mut proteins = Vec::new();
        let mut targets = Vec::new();
        for (i, g) in genes.iter().enumerate() {
            let dna_str = g
                .as_str()
                .ok_or_else(|| "gene is not a string".to_string())?;
            let dna = bio::parse_dna(dna_str).ok_or_else(|| "bad gene".to_string())?;
            let mut protein = String::new();
            let mut j = 0usize;
            while j + 2 < dna.len() {
                match bio::translate_codon(dna[j], dna[j + 1], dna[j + 2]) {
                    Some(aa) => protein.push(aa),
                    None => break,
                }
                j += 3;
            }
            proteins.push(Value::from(protein));
            targets.push(Value::map_from([("index", Value::Int(i as i64))]));
        }
        Ok(ProgramOutput::from_fields(
            [
                ("proteins", Value::List(proteins)),
                ("targets", Value::List(targets)),
            ],
            200.0,
        ))
    });

    let pam_align = Arc::clone(&pam);
    lib.register("tower.align_one", move |inputs| {
        let proteins = proteins_from(inputs)?;
        let index = inputs
            .get("item")
            .and_then(|v| v.get_path(&["index"]))
            .and_then(|v| v.as_int())
            .ok_or_else(|| "align_one needs an item index".to_string())?
            as usize;
        let me = Sequence::from_str(index as u32, &proteins[index])
            .ok_or_else(|| "invalid protein".to_string())?;
        let params = AlignParams::default();
        let mut row = Vec::with_capacity(proteins.len());
        let mut cells = 0u64;
        for (j, p) in proteins.iter().enumerate() {
            if j == index {
                row.push(Value::Float(0.0));
                continue;
            }
            let other =
                Sequence::from_str(j as u32, p).ok_or_else(|| "invalid protein".to_string())?;
            let refined = refine_pam_distance(&me, &other, &pam_align, &params);
            cells += refined.cells;
            row.push(Value::Float(refined.pam_distance as f64));
        }
        Ok(ProgramOutput::from_fields(
            [
                ("index", Value::Int(index as i64)),
                ("row", Value::List(row)),
            ],
            cost.cells_ms(cells) + cost.darwin_init_ms / 5.0,
        ))
    });

    lib.register("tower.nj", move |inputs| {
        let rows = inputs
            .get("rows")
            .and_then(|v| v.as_list())
            .ok_or_else(|| "nj needs rows".to_string())?;
        let mut indexed: Vec<(i64, Vec<f64>)> = rows
            .iter()
            .filter_map(|r| {
                let idx = r.get_path(&["index"])?.as_int()?;
                let row = r
                    .get_path(&["row"])?
                    .as_list()?
                    .iter()
                    .filter_map(|v| v.as_float())
                    .collect();
                Some((idx, row))
            })
            .collect();
        indexed.sort_by_key(|(i, _)| *i);
        let dist: Vec<Vec<f64>> = indexed.into_iter().map(|(_, r)| r).collect();
        if dist.len() < 2 {
            return Err("need at least two proteins for a tree".to_string());
        }
        let labels: Vec<String> = (0..dist.len()).map(|i| format!("g{i}")).collect();
        let tree = bio::neighbor_joining(&dist, &labels);
        Ok(ProgramOutput::from_fields(
            [("tree", Value::from(tree.newick))],
            (dist.len().pow(3) as f64) * 0.01 + 300.0,
        ))
    });

    let pam_msa = Arc::clone(&pam);
    lib.register("tower.msa", move |inputs| {
        let proteins = proteins_from(inputs)?;
        if proteins.is_empty() {
            return Err("msa needs proteins".to_string());
        }
        // Star alignment around the longest sequence (the center), then a
        // per-column majority consensus as the "probabilistic ancestral
        // sequence" storey.
        let center = proteins
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            .map(|(i, _)| i)
            .unwrap();
        let center_seq = Sequence::from_str(center as u32, &proteins[center])
            .ok_or_else(|| "invalid protein".to_string())?;
        let matrix = pam_msa.nearest(120);
        let params = AlignParams::default();
        let mut cells = 0u64;
        let width = center_seq.len();
        let mut columns: Vec<BTreeMap<char, usize>> = vec![BTreeMap::new(); width];
        let mut aligned_rows: Vec<String> = Vec::with_capacity(proteins.len());
        for p in &proteins {
            let s = Sequence::from_str(0, p).ok_or_else(|| "invalid protein".to_string())?;
            let al = bioopera_darwin::align::align_local(&s, &center_seq, matrix, &params);
            cells += al.cells;
            // Project s onto center coordinates.
            let mut row = vec!['-'; width];
            let (mut i, mut j) = (al.a_range.0, al.b_range.0);
            for op in &al.ops {
                match op {
                    bioopera_darwin::align::AlignOp::Sub => {
                        row[j] = bioopera_darwin::alphabet::LETTERS[s.residues[i] as usize];
                        i += 1;
                        j += 1;
                    }
                    bioopera_darwin::align::AlignOp::InsA => i += 1,
                    bioopera_darwin::align::AlignOp::InsB => j += 1,
                }
            }
            for (col, &c) in row.iter().enumerate() {
                if c != '-' {
                    *columns[col].entry(c).or_default() += 1;
                }
            }
            aligned_rows.push(row.into_iter().collect());
        }
        let ancestor: String = columns
            .iter()
            .map(|col| {
                col.iter()
                    .max_by_key(|(_, n)| **n)
                    .map(|(c, _)| *c)
                    .unwrap_or('-')
            })
            .collect();
        Ok(ProgramOutput::from_fields(
            [
                (
                    "msa",
                    Value::List(aligned_rows.into_iter().map(Value::from).collect()),
                ),
                ("ancestor", Value::from(ancestor.replace('-', ""))),
            ],
            cost.cells_ms(cells) + 200.0,
        ))
    });

    lib.register("tower.choufasman", move |inputs| {
        let proteins = proteins_from(inputs)?;
        let index = inputs
            .get("item")
            .and_then(|v| v.get_path(&["index"]))
            .and_then(|v| v.as_int())
            .ok_or_else(|| "choufasman needs an item index".to_string())?
            as usize;
        let s = Sequence::from_str(index as u32, &proteins[index])
            .ok_or_else(|| "invalid protein".to_string())?;
        let prediction = bio::chou_fasman(&s);
        let (h, e, c) = bio::structure_summary(&prediction);
        Ok(ProgramOutput::from_fields(
            [
                ("index", Value::Int(index as i64)),
                ("prediction", Value::from(prediction)),
                ("helix", Value::Float(h)),
                ("sheet", Value::Float(e)),
                ("coil", Value::Float(c)),
            ],
            s.len() as f64 * 0.5 + 100.0,
        ))
    });

    lib.register("tower.summary", move |inputs| {
        let tree = inputs
            .get("tree")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        let ancestor = inputs
            .get("ancestor")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        let structures = inputs
            .get("structures")
            .and_then(|v| v.as_list())
            .ok_or_else(|| "summary needs structures".to_string())?;
        let mut helix_sum = 0.0;
        let mut sheet_sum = 0.0;
        for s in structures {
            helix_sum += s
                .get_path(&["helix"])
                .and_then(|v| v.as_float())
                .unwrap_or(0.0);
            sheet_sum += s
                .get_path(&["sheet"])
                .and_then(|v| v.as_float())
                .unwrap_or(0.0);
        }
        let n = structures.len().max(1) as f64;
        let (helix, sheet) = (helix_sum / n, sheet_sum / n);
        // The top storey: a (deliberately coarse) functional class from
        // fold content — the paper's "from this shape, one may eventually
        // deduce the function of the protein".
        let function = if helix > 2.0 * sheet {
            "all-alpha (likely globin-like / regulatory)"
        } else if sheet > 2.0 * helix {
            "all-beta (likely transport / binding barrel)"
        } else {
            "alpha/beta (likely enzymatic fold)"
        };
        let report = Value::map_from([
            ("n_structures", Value::Int(structures.len() as i64)),
            ("tree", Value::from(tree)),
            ("ancestor_len", Value::Int(ancestor.len() as i64)),
            ("mean_helix", Value::Float(helix)),
            ("mean_sheet", Value::Float(sheet)),
            ("function", Value::from(function)),
        ]);
        Ok(ProgramOutput::from_fields([("report", report)], 100.0))
    });

    lib
}

/// Synthesize "raw DNA" containing `genes` known protein families, so the
/// tower has real homologies to discover.  Returns the DNA string.
pub fn make_input_dna(families: usize, members_per_family: usize, seed: u64) -> String {
    let pam = PamFamily::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dna = Vec::new();
    let junk = |rng: &mut StdRng, n: usize, out: &mut Vec<u8>| {
        use rand::Rng;
        for _ in 0..n {
            // Junk avoiding long ORFs: sprinkle stop-ish content (TA-rich).
            out.push([3, 0, 3, 2][rng.gen_range(0..4usize)]);
        }
    };
    for f in 0..families {
        let ancestor = bioopera_darwin::dataset::random_sequence(&mut rng, 60 + 10 * f);
        for _ in 0..members_per_family {
            let child = bioopera_darwin::dataset::evolve(&ancestor, 40, &pam, &mut rng, 0.0);
            // Ensure no stop-free violation: proteins never encode stops.
            let protein: String = child.to_string();
            junk(&mut rng, 20, &mut dna);
            dna.extend(bio::back_translate(&protein));
        }
    }
    junk(&mut rng, 20, &mut dna);
    bio::dna_to_string(&dna)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioopera_cluster::{Cluster, NodeSpec, SimTime};
    use bioopera_core::{Driver, Runtime, RuntimeConfig};
    use bioopera_store::MemDisk;

    #[test]
    fn tower_runs_end_to_end() {
        let pam = Arc::new(PamFamily::default());
        let lib = tower_library(Arc::clone(&pam), CostModel::default());
        let cfg = RuntimeConfig {
            heartbeat: SimTime::from_mins(5),
            ..Default::default()
        };
        let cluster = Cluster::new(
            "t",
            (0..3)
                .map(|i| NodeSpec::new(format!("n{i}"), 2, 500, "linux"))
                .collect(),
        );
        let mut rt = Runtime::new(MemDisk::new(), cluster, lib, cfg).unwrap();
        rt.register_template(&tower_template()).unwrap();
        let mut init = BTreeMap::new();
        init.insert("dna".to_string(), Value::from(make_input_dna(2, 3, 42)));
        let id = rt.submit("TowerOfInformation", init).unwrap();
        rt.run_to_completion().unwrap();
        assert_eq!(
            rt.instance_status(id),
            Some(bioopera_core::InstanceStatus::Completed)
        );
        let wb = rt.whiteboard(id).unwrap();
        let tree = wb["tree"].as_str().unwrap();
        assert!(tree.ends_with(';'), "tree: {tree}");
        assert!(tree.matches("g").count() >= 6, "6 leaves expected: {tree}");
        let report = wb["report"].as_map().unwrap();
        // At least the 6 planted genes; ORF scanning may over-call a few
        // frame-shifted ORFs inside real genes, as real scanners do.
        assert!(report["n_structures"].as_int().unwrap() >= 6);
        assert!(
            report["function"].as_str().unwrap().contains("alpha")
                || report["function"].as_str().unwrap().contains("beta")
        );
    }

    #[test]
    fn make_input_dna_contains_findable_genes() {
        let dna = make_input_dna(2, 2, 7);
        let parsed = bio::parse_dna(&dna).unwrap();
        let orfs = bio::find_orfs(&parsed, 20);
        assert!(orfs.len() >= 4, "expected >= 4 genes, found {}", orfs.len());
    }

    #[test]
    fn template_roundtrips_through_ocr() {
        let t = tower_template();
        let back = bioopera_ocr::parse_process(&bioopera_ocr::to_ocr_text(&t)).unwrap();
        assert_eq!(back, t);
    }
}
