//! Machine-readable report emission: JSON and CSV renderings of a
//! [`SweepReport`].
//!
//! The workspace stays dependency-free by choice, so these emitters lay out
//! the JSON by hand and encode every value with [`rn_telemetry::json`]. The
//! shape is stable and self-describing: a `spec` block that fully reproduces
//! the sweep (families with parameters, sizes, schemes, seeds), the flat
//! `records` array, the per-scheme `label_length_histograms`, and a
//! `summary` array mirroring [`SweepReport::summary_table`]. CSV carries the
//! records only — one row per executed run, ready for a dataframe.

use crate::scenario::{SweepReport, SweepSpec};
use rn_telemetry::json;

/// Formats the per-message completion rounds as a JSON array of numbers
/// and `null`s (empty for single-source runs).
fn json_rounds(rounds: &[Option<u64>]) -> String {
    let entries: Vec<String> = rounds.iter().map(|&r| json::opt_u64(r)).collect();
    format!("[{}]", entries.join(", "))
}

/// Formats the per-message completion rounds as one `;`-joined CSV field
/// (`-` marks a message that never fully propagated; empty for
/// single-source runs). Semicolons keep the field comma-free, so it never
/// needs quoting.
fn csv_rounds(rounds: &[Option<u64>]) -> String {
    rounds
        .iter()
        .map(|r| r.map_or_else(|| "-".to_string(), |v| v.to_string()))
        .collect::<Vec<_>>()
        .join(";")
}

fn spec_json(spec: &SweepSpec) -> String {
    // The faults axis is always emitted — a default spec renders as
    // ["none"], so a plain sweep and an explicit `--faults none` sweep
    // produce byte-identical documents.
    let faults: Vec<String> = spec
        .faults
        .iter()
        .map(|f| format!("\"{}\"", json::escape(&f.to_string())))
        .collect();
    let families: Vec<String> = spec
        .families
        .iter()
        .map(|f| {
            format!(
                "{{\"name\": \"{}\", \"params\": \"{}\"}}",
                json::escape(f.name()),
                json::escape(&f.params())
            )
        })
        .collect();
    let schemes: Vec<String> = spec
        .schemes
        .iter()
        .map(|s| format!("\"{}\"", json::escape(s.name())))
        .collect();
    let sizes: Vec<String> = spec
        .sizes
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let seeds: Vec<String> = spec
        .seeds
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    format!(
        "{{\n    \"families\": [{}],\n    \"sizes\": [{}],\n    \"schemes\": [{}],\n    \
         \"seeds\": [{}],\n    \"faults\": [{}],\n    \"sources_per_point\": {},\n    \
         \"record_traces\": {},\n    \"verify_static\": {}\n  }}",
        families.join(", "),
        sizes.join(", "),
        schemes.join(", "),
        seeds.join(", "),
        faults.join(", "),
        spec.sources_per_point,
        spec.record_traces,
        spec.verify_static
    )
}

/// Renders the full report as a pretty-printed JSON document.
pub fn to_json(report: &SweepReport) -> String {
    let mut records = String::new();
    for (i, r) in report.records.iter().enumerate() {
        if i > 0 {
            records.push_str(",\n");
        }
        records.push_str(&format!(
            "    {{\"family\": \"{}\", \"family_params\": \"{}\", \"n_requested\": {}, \
             \"n\": {}, \"edges\": {}, \"max_degree\": {}, \"avg_degree\": {}, \
             \"seed\": {}, \"scheme\": \"{}\", \"source\": {}, \"k_sources\": {}, \
             \"label_length\": {}, \"distinct_labels\": {}, \"completion_round\": {}, \
             \"predicted_completion_round\": {}, \
             \"message_completion_rounds\": {}, \"rounds_executed\": {}, \
             \"transmissions\": {}, \"collisions\": {}, \"silent_rounds\": {}, \
             \"fault_spec\": \"{}\", \"delivery_rate\": {}, \"stalled_at\": {}, \
             \"faults_injected\": {}}}",
            json::escape(r.family),
            json::escape(&r.family_params),
            r.n_requested,
            r.n,
            r.edges,
            r.max_degree,
            json::f64(r.avg_degree),
            r.seed,
            json::escape(r.scheme),
            r.source,
            r.k_sources,
            r.label_length,
            r.distinct_labels,
            json::opt_u64(r.completion_round),
            json::opt_u64(r.predicted_completion_round),
            json_rounds(&r.message_completion_rounds),
            r.rounds_executed,
            r.transmissions,
            r.collisions,
            r.silent_rounds,
            json::escape(&r.fault_spec),
            json::f64(r.delivery_rate),
            json::opt_u64(r.stalled_at),
            r.faults_injected,
        ));
    }
    let mut histograms = String::new();
    for (i, (scheme, hist)) in report.label_length_histograms.iter().enumerate() {
        if i > 0 {
            histograms.push_str(",\n");
        }
        let entries: Vec<String> = hist
            .iter()
            .map(|(bits, count)| format!("\"{bits}\": {count}"))
            .collect();
        histograms.push_str(&format!(
            "    \"{}\": {{{}}}",
            json::escape(scheme),
            entries.join(", ")
        ));
    }
    let mut summaries = String::new();
    for (i, s) in report.summaries().iter().enumerate() {
        if i > 0 {
            summaries.push_str(",\n");
        }
        let (mean, max) = s
            .completion_rounds
            .map_or(("null".to_string(), "null".to_string()), |c| {
                (json::f64(c.mean), json::f64(c.max))
            });
        let coll = s
            .collisions
            .map_or("null".to_string(), |c| json::f64(c.mean));
        summaries.push_str(&format!(
            "    {{\"family\": \"{}\", \"scheme\": \"{}\", \"runs\": {}, \"completed\": {}, \
             \"mean_completion_round\": {}, \"max_completion_round\": {}, \
             \"mean_collisions\": {}, \"max_label_length\": {}}}",
            json::escape(s.family),
            json::escape(s.scheme),
            s.runs,
            s.completed,
            mean,
            max,
            coll,
            s.max_label_length,
        ));
    }
    format!(
        "{{\n  \"sweep\": \"{}\",\n  \"spec\": {},\n  \"records\": [\n{}\n  ],\n  \
         \"label_length_histograms\": {{\n{}\n  }},\n  \"summary\": [\n{}\n  ]\n}}\n",
        json::escape(&report.name),
        spec_json(&report.spec),
        records,
        histograms,
        summaries,
    )
}

/// The CSV header matching [`to_csv`]'s rows.
pub const CSV_HEADER: &str = "family,family_params,n_requested,n,edges,max_degree,avg_degree,\
seed,scheme,source,k_sources,label_length,distinct_labels,completion_round,\
predicted_completion_round,message_completion_rounds,rounds_executed,transmissions,collisions,\
silent_rounds,fault_spec,delivery_rate,stalled_at,faults_injected";

/// Escapes one CSV field (quotes it when it contains a comma or quote).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders the report's records as CSV, one row per executed run.
pub fn to_csv(report: &SweepReport) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in &report.records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.4},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.4},{},{}\n",
            csv_field(r.family),
            csv_field(&r.family_params),
            r.n_requested,
            r.n,
            r.edges,
            r.max_degree,
            r.avg_degree,
            r.seed,
            csv_field(r.scheme),
            r.source,
            r.k_sources,
            r.label_length,
            r.distinct_labels,
            r.completion_round
                .map_or_else(String::new, |c| c.to_string()),
            r.predicted_completion_round
                .map_or_else(String::new, |c| c.to_string()),
            csv_rounds(&r.message_completion_rounds),
            r.rounds_executed,
            r.transmissions,
            r.collisions,
            r.silent_rounds,
            csv_field(&r.fault_spec),
            r.delivery_rate,
            r.stalled_at.map_or_else(String::new, |c| c.to_string()),
            r.faults_injected,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;
    use crate::scenario::SweepSpec;
    use rn_broadcast::session::Scheme;
    use rn_graph::generators::TopologyFamily;

    fn small_report() -> SweepReport {
        SweepSpec::new("emit-test")
            .families(&[
                TopologyFamily::Grid,
                TopologyFamily::StarOfCliques { clique_size: 4 },
            ])
            .sizes(&[16])
            .schemes(&[Scheme::Lambda])
            .seeds(&[1])
            .threads(1)
            .run()
            .unwrap()
    }

    #[test]
    fn json_contains_every_section_and_balances_braces() {
        let json = to_json(&small_report());
        for key in [
            "\"sweep\"",
            "\"spec\"",
            "\"records\"",
            "\"label_length_histograms\"",
            "\"summary\"",
            "\"star_of_cliques\"",
            "\"clique_size=4\"",
            "\"completion_round\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        let opens = json.matches('[').count();
        let closes = json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn csv_has_header_plus_one_row_per_record() {
        let report = small_report();
        let csv = to_csv(&report);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + report.records.len());
        let columns = CSV_HEADER.split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "{line}");
        }
    }

    #[test]
    fn csv_field_escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_escaping_handles_family_param_shaped_strings() {
        // Family parameter strings contain commas and equals signs
        // (clustered_gnp: "clusters=6,p_in=0.6,p_out=0.01"); adversarial
        // inputs could carry quotes and newlines.
        let params = "clusters=6,p_in=0.6,p_out=0.01";
        assert_eq!(csv_field(params), format!("\"{params}\""));

        assert_eq!(csv_field("a\nb"), "\"a\nb\"", "newline forces quoting");
        assert_eq!(
            csv_field("p=\"x\",q=2"),
            "\"p=\"\"x\"\",q=2\"",
            "quotes double inside a quoted field"
        );
    }

    #[test]
    fn clustered_gnp_params_survive_the_csv_column_count() {
        // The comma-bearing family_params field must be quoted so a CSV
        // parser still sees exactly one column for it.
        let report = SweepSpec::new("commas")
            .families(&[TopologyFamily::ClusteredGnp {
                clusters: 3,
                p_in: 0.6,
                p_out: 0.05,
            }])
            .sizes(&[16])
            .schemes(&[Scheme::Lambda])
            .seeds(&[1])
            .threads(1)
            .run()
            .unwrap();
        let csv = to_csv(&report);
        let columns = CSV_HEADER.split(',').count();
        for line in csv.lines().skip(1) {
            // A minimal RFC-4180 field walk (good enough for our own
            // output): count top-level commas outside quoted fields.
            let mut fields = 1;
            let mut in_quotes = false;
            for c in line.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => fields += 1,
                    _ => {}
                }
            }
            assert_eq!(fields, columns, "{line}");
            assert!(line.contains("\"clusters=3,p_in=0.6,p_out=0.05\""));
        }
    }

    #[test]
    fn incomplete_runs_serialise_as_null_and_empty() {
        let mut report = small_report();
        report.records[0].completion_round = None;
        let json = to_json(&report);
        assert!(json.contains("\"completion_round\": null"));
        // Sanity on the document as a whole: balanced delimiters and no raw
        // control characters outside escapes (a cheap stand-in for a full
        // parser round-trip; the workspace has no JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.chars().all(|c| c == '\n' || !c.is_control()));
        let csv = to_csv(&report);
        // The empty completion_round field leaves two adjacent commas.
        assert!(csv.lines().nth(1).unwrap().contains(",,"));
    }

    #[test]
    fn fault_columns_ride_at_the_end_of_both_formats() {
        let report = SweepSpec::new("faults-emit")
            .families(&[TopologyFamily::Path])
            .sizes(&[12])
            .schemes(&[Scheme::Lambda])
            .seeds(&[1])
            .faults(&[FaultSpec::None, FaultSpec::Crash { percent: 30 }])
            .threads(1)
            .run()
            .unwrap();
        let json = to_json(&report);
        assert!(json.contains("\"faults\": [\"none\", \"crash:30\"]"));
        assert!(json.contains("\"fault_spec\": \"none\""));
        assert!(json.contains("\"fault_spec\": \"crash:30\""));
        assert!(json.contains("\"delivery_rate\": 1.0000"));
        assert!(json.contains("\"faults_injected\": "));

        let csv = to_csv(&report);
        let header = csv.lines().next().unwrap();
        // New columns append at the end; every historical column index is
        // untouched (downstream parsers index by position).
        assert!(header.ends_with(",fault_spec,delivery_rate,stalled_at,faults_injected"));
        assert_eq!(
            CSV_HEADER.split(',').nth(15).unwrap(),
            "message_completion_rounds"
        );
        let columns = CSV_HEADER.split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), columns, "{line}");
        }
        let faulted = csv.lines().find(|l| l.contains("crash:30")).unwrap();
        assert_eq!(faulted.split(',').nth(20).unwrap(), "crash:30");
    }

    #[test]
    fn default_spec_always_emits_the_faults_axis() {
        // A plain sweep and an explicit `faults = [none]` sweep must render
        // byte-identically, so the axis appears even in its default state.
        let json = to_json(&small_report());
        assert!(json.contains("\"faults\": [\"none\"]"));
    }

    #[test]
    fn multi_records_emit_per_message_columns() {
        let report = SweepSpec::new("multi-emit")
            .families(&[TopologyFamily::Grid])
            .sizes(&[16])
            .schemes(&[Scheme::MultiLambda { k: 3 }])
            .seeds(&[1])
            .threads(1)
            .run()
            .unwrap();
        let r = &report.records[0];
        assert_eq!(r.k_sources, 3);
        assert_eq!(r.message_completion_rounds.len(), 3);

        let json = to_json(&report);
        assert!(json.contains("\"k_sources\": 3"));
        assert!(json.contains("\"message_completion_rounds\": ["));
        let csv = to_csv(&report);
        assert!(csv.lines().next().unwrap().contains("k_sources"));
        // The per-message field is `;`-joined, e.g. "12;15;9".
        let row = csv.lines().nth(1).unwrap();
        let field = row.split(',').nth(15).unwrap();
        assert_eq!(field.split(';').count(), 3, "{row}");

        // A message that never propagated serialises as null / "-".
        let mut failed = report.clone();
        failed.records[0].message_completion_rounds[1] = None;
        let rounds = &failed.records[0].message_completion_rounds;
        assert!(json_rounds(rounds).contains("null"));
        let csv_cell = csv_rounds(rounds);
        assert_eq!(csv_cell.split(';').nth(1).unwrap(), "-");
        assert!(to_json(&failed).contains(&json_rounds(rounds)));
        assert!(to_csv(&failed).contains(&csv_cell));
    }
}
