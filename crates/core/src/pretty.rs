//! Rendering candidate executions in the paper's figure style.

use crate::derive::{Analysis, BaseRel};
use crate::event::EventKind;
use crate::exec::Execution;
use crate::ids::{names, EventId};

/// Paper-style labels: user/support instructions numbered in `(thread,
/// slot)` order; ghosts share their invoker's subscript (Fig. 3).
pub fn labels(x: &Execution) -> Vec<String> {
    let mut number = vec![usize::MAX; x.events().len()];
    let mut next = 0usize;
    for t in 0..x.num_threads() {
        for &e in x.po_of(crate::ids::ThreadId(t)) {
            number[e.index()] = next;
            next += 1;
        }
    }
    for e in x.events() {
        if let Some(inv) = x.invoker(e.id) {
            number[e.id.index()] = number[inv.index()];
        }
    }
    x.events()
        .iter()
        .map(|e| format!("{}{}", e.mnemonic(), number[e.id.index()]))
        .collect()
}

/// One line of an event listing, e.g. `Rptw0 z = VA x → PA a`.
fn event_line(a: &Analysis<'_>, labels: &[String], e: EventId) -> String {
    let x = a.exec();
    let ev = x.event(e);
    let label = &labels[e.index()];
    match ev.kind {
        EventKind::Read => match x.rf_source(e) {
            Some(w) => format!("{label} {} = v({})", ev.va_unwrap(), labels[w.index()]),
            None => format!("{label} {} = 0", ev.va_unwrap()),
        },
        EventKind::Write => format!("{label} {} = new", ev.va_unwrap()),
        EventKind::Fence | EventKind::TlbFlush => label.clone(),
        EventKind::Invlpg => format!("{label} {}", ev.va_unwrap()),
        EventKind::PteWrite { .. } | EventKind::Ptw | EventKind::DirtyBitWrite => {
            let m = a.mapping(e).expect("pte accesses carry mappings");
            format!("{label} {} = {m}", names::pte(ev.va_unwrap().0))
        }
    }
}

/// Renders the execution as per-thread columns followed by the non-empty
/// MTM relations — the textual analogue of the paper's figures.
pub fn render(a: &Analysis<'_>) -> String {
    let x = a.exec();
    let labels = labels(x);

    // Events per thread in anchored order.
    let mut columns: Vec<Vec<String>> = vec![Vec::new(); x.num_threads()];
    let mut order: Vec<EventId> = x.events().iter().map(|e| e.id).collect();
    order.sort_by_key(|&e| a.anchor(e));
    for e in order {
        let t = x.event(e).thread.0;
        columns[t].push(event_line(a, &labels, e));
    }

    let width = columns
        .iter()
        .flatten()
        .map(|l| l.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let rows = columns.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = String::new();
    for t in 0..x.num_threads() {
        if t > 0 {
            out.push_str(" | ");
        }
        out.push_str(&format!("{:width$}", format!("C{t}")));
    }
    out.push('\n');
    for r in 0..rows {
        for (t, col) in columns.iter().enumerate() {
            if t > 0 {
                out.push_str(" | ");
            }
            let cell = col.get(r).map(String::as_str).unwrap_or("");
            out.push_str(&format!("{cell:width$}"));
        }
        out.push('\n');
    }

    // Relations of Table I that are non-empty and not fully derived noise.
    let shown = [
        BaseRel::Rf,
        BaseRel::Co,
        BaseRel::Fr,
        BaseRel::RfPtw,
        BaseRel::RfPa,
        BaseRel::CoPa,
        BaseRel::FrPa,
        BaseRel::FrVa,
        BaseRel::Remap,
        BaseRel::Rmw,
    ];
    for rel in shown {
        let pairs = a.relation(rel);
        if pairs.is_empty() {
            continue;
        }
        let body: Vec<String> = pairs
            .iter()
            .map(|&(p, q)| format!("{} → {}", labels[p.index()], labels[q.index()]))
            .collect();
        out.push_str(&format!("{}: {}\n", rel.name(), body.join(", ")));
    }
    out
}

/// Renders the execution as a Graphviz `dot` digraph in the style of the
/// paper's figures: one cluster per core (events in anchored order), one
/// styled edge set per relation.
///
/// Derived transitive edges are reduced for readability: `po` is drawn as
/// the per-thread successor chain, `co`/`co_pa` as their covering chains.
pub fn dot(a: &Analysis<'_>) -> String {
    let x = a.exec();
    let labels = labels(x);
    let node = |e: EventId| format!("e{}", e.0);
    let mut out =
        String::from("digraph elt {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");

    for t in 0..x.num_threads() {
        out.push_str(&format!(
            "  subgraph cluster_c{t} {{\n    label=\"C{t}\";\n"
        ));
        let mut order: Vec<EventId> = x
            .events()
            .iter()
            .filter(|e| e.thread.0 == t)
            .map(|e| e.id)
            .collect();
        order.sort_by_key(|&e| a.anchor(e));
        for e in order {
            let ghost = if x.event(e).kind.is_ghost() {
                ", style=dashed, color=gray40"
            } else {
                ""
            };
            out.push_str(&format!(
                "    {} [label=\"{}\"{}];\n",
                node(e),
                event_line(a, &labels, e),
                ghost
            ));
        }
        out.push_str("  }\n");
    }

    // po as the successor chain.
    for t in 0..x.num_threads() {
        let row = x.po_of(crate::ids::ThreadId(t));
        for pair in row.windows(2) {
            out.push_str(&format!(
                "  {} -> {} [label=\"po\", color=black];\n",
                node(pair[0]),
                node(pair[1])
            ));
        }
    }

    let styled = [
        (BaseRel::Rf, "red", false),
        (BaseRel::Fr, "orange", true),
        (BaseRel::Ghost, "gray50", true),
        (BaseRel::RfPtw, "purple", false),
        (BaseRel::RfPa, "darkgreen", false),
        (BaseRel::FrVa, "brown", true),
        (BaseRel::FrPa, "sienna", true),
        (BaseRel::Remap, "magenta", false),
        (BaseRel::Rmw, "blue4", false),
    ];
    for (rel, color, dashed) in styled {
        let style = if dashed { ", style=dashed" } else { "" };
        for (p, q) in a.relation(rel) {
            out.push_str(&format!(
                "  {} -> {} [label=\"{}\", color={color}, fontcolor={color}{style}];\n",
                node(p),
                node(q),
                rel.name()
            ));
        }
    }
    // co / co_pa as covering chains.
    for (rel, color) in [(BaseRel::Co, "blue"), (BaseRel::CoPa, "cyan4")] {
        let pairs = a.relation(rel);
        for &(p, q) in &pairs {
            // Covering edge: no intermediate element.
            let covered = pairs
                .iter()
                .any(|&(p2, m)| p2 == p && pairs.contains(&(m, q)));
            if !covered {
                out.push_str(&format!(
                    "  {} -> {} [label=\"{}\", color={color}, fontcolor={color}];\n",
                    node(p),
                    node(q),
                    rel.name()
                ));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EltBuilder;
    use crate::ids::{Pa, Va};

    #[test]
    fn labels_follow_paper_numbering() {
        // Fig. 10a: WPTE0, INVLPG1, R2 with ghost Rptw2.
        let mut b = EltBuilder::new();
        let t = b.thread();
        let w = b.pte_write(t, Va(0), Pa(1));
        let i = b.invlpg(t, Va(0));
        b.remap(w, i);
        let (r, p) = b.read_walk(t, Va(0));
        let x = b.build();
        let l = labels(&x);
        assert_eq!(l[w.index()], "WPTE0");
        assert_eq!(l[i.index()], "INVLPG1");
        assert_eq!(l[r.index()], "R2");
        assert_eq!(l[p.index()], "Rptw2"); // ghost shares subscript
    }

    #[test]
    fn render_mentions_every_event_and_key_relations() {
        let mut b = EltBuilder::new();
        let t = b.thread();
        let w = b.pte_write(t, Va(0), Pa(1));
        let i = b.invlpg(t, Va(0));
        b.remap(w, i);
        b.read_walk(t, Va(0));
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        let s = render(&a);
        assert!(s.contains("WPTE0"), "{s}");
        assert!(s.contains("Rptw2"), "{s}");
        assert!(s.contains("remap:"), "{s}");
        assert!(s.contains("fr_va:"), "{s}");
        assert!(s.contains("VA x → PA a"), "{s}");
    }

    #[test]
    fn dot_emits_clusters_and_styled_edges() {
        let x = crate::figures::fig10a_ptwalk2();
        let a = x.analyze().expect("well-formed");
        let g = dot(&a);
        assert!(g.starts_with("digraph elt {"), "{g}");
        assert!(g.contains("cluster_c0"), "{g}");
        assert!(g.contains("label=\"remap\""), "{g}");
        assert!(g.contains("label=\"fr_va\""), "{g}");
        assert!(g.contains("style=dashed"), "{g}");
        assert!(g.ends_with("}\n"), "{g}");
    }

    #[test]
    fn dot_reduces_coherence_to_covering_chain() {
        // Three same-location writes: 3 co pairs, only 2 covering edges.
        let mut b = EltBuilder::new();
        let t = b.thread();
        let (w1, _, _) = b.write_walk(t, Va(0));
        let (w2, _) = b.write(t, Va(0));
        let (w3, _) = b.write(t, Va(0));
        b.co([w1, w2, w3]);
        // Dirty-bit updates share the PTE location: order them too.
        let dbs: Vec<_> = [w1, w2, w3]
            .iter()
            .flat_map(|&w| b.clone().build().ghosts_of(w))
            .collect();
        let _ = dbs;
        let mut b2 = EltBuilder::new();
        let t = b2.thread();
        let (w1, d1, _) = b2.write_walk(t, Va(0));
        let (w2, d2) = b2.write(t, Va(0));
        let (w3, d3) = b2.write(t, Va(0));
        b2.co([w1, w2, w3]);
        b2.co([d1, d2, d3]);
        let x = b2.build();
        let a = x.analyze().expect("well-formed");
        let g = dot(&a);
        let co_edges = g.matches("label=\"co\"").count();
        assert_eq!(
            co_edges, 4,
            "two chains of three → four covering edges\n{g}"
        );
    }

    #[test]
    fn multi_thread_render_has_columns() {
        let mut b = EltBuilder::new();
        let t0 = b.thread();
        let t1 = b.thread();
        b.write_walk(t0, Va(0));
        b.read_walk(t1, Va(0));
        let x = b.build();
        let a = x.analyze().expect("well-formed");
        let s = render(&a);
        assert!(s.contains("C0"));
        assert!(s.contains("C1"));
        assert!(s.contains(" | "));
    }
}
