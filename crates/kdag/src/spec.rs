//! Serializable DAG descriptions.
//!
//! [`crate::JobDag`] itself is deliberately not decodable — its
//! invariants (acyclicity, CSR consistency, cached metrics) must go
//! through the builder. [`DagSpec`] is the wire format: a plain
//! category/edge list, `{"k","categories","edges"}` in JSON, shared by
//! the job-set files and the service protocol, that re-validates on
//! [`DagSpec::build`].

use crate::builder::DagBuilder;
use crate::category::Category;
use crate::dag::JobDag;
use crate::error::DagError;
use crate::ids::TaskId;
use ktelemetry::json::{self, need_arr, need_u64, Value};

/// A serializable, not-yet-validated description of a K-DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagSpec {
    /// Number of categories `K`.
    pub k: usize,
    /// Category of each task (dense task ids `0..len`).
    pub categories: Vec<u16>,
    /// Precedence edges as `(from, to)` task-id pairs.
    pub edges: Vec<(u32, u32)>,
}

impl DagSpec {
    /// Extract the spec of a validated DAG (always round-trips).
    pub fn from_dag(dag: &JobDag) -> DagSpec {
        let mut edges = Vec::with_capacity(dag.edge_count());
        for t in dag.tasks() {
            for &s in dag.successors(t) {
                edges.push((t.0, s.0));
            }
        }
        DagSpec {
            k: dag.k(),
            categories: dag.tasks().map(|t| dag.category(t).0).collect(),
            edges,
        }
    }

    /// Validate and build the DAG (rejects cycles, bad indices, …).
    pub fn build(&self) -> Result<JobDag, DagError> {
        let mut b = DagBuilder::with_capacity(self.k, self.categories.len(), self.edges.len());
        for &c in &self.categories {
            if usize::from(c) >= self.k {
                // Mirror the builder's panic as a data error: specs come
                // from files, not code.
                return Err(DagError::UnknownTask(TaskId(u32::MAX)));
            }
            b.add_task(Category(c));
        }
        for &(u, v) in &self.edges {
            b.add_edge(TaskId(u), TaskId(v))?;
        }
        b.build()
    }

    /// The JSON encoding: `{"k":K,"categories":[..],"edges":[[u,v],..]}`
    /// in that field order.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("k", Value::from(self.k)),
            ("categories", Value::from(self.categories.as_slice())),
            (
                "edges",
                Value::Arr(
                    self.edges
                        .iter()
                        .map(|&(u, v)| Value::Arr(vec![Value::from(u), Value::from(v)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode [`DagSpec::to_json`]'s shape (structure only; DAG
    /// validity is checked by [`DagSpec::build`]).
    pub fn from_json(v: &Value) -> Result<DagSpec, String> {
        let k = need_u64(v, "k")? as usize;
        let categories = need_arr(v, "categories")?
            .iter()
            .map(|c| {
                c.as_u64()
                    .and_then(|c| u16::try_from(c).ok())
                    .ok_or_else(|| "bad category".to_string())
            })
            .collect::<Result<Vec<u16>, String>>()?;
        let edge = |e: &Value| -> Option<(u32, u32)> {
            let [u, v] = e.as_arr()? else {
                return None;
            };
            Some((
                u32::try_from(u.as_u64()?).ok()?,
                u32::try_from(v.as_u64()?).ok()?,
            ))
        };
        let edges = need_arr(v, "edges")?
            .iter()
            .map(|e| edge(e).ok_or_else(|| "bad edge".to_string()))
            .collect::<Result<Vec<(u32, u32)>, String>>()?;
        Ok(DagSpec {
            k,
            categories,
            edges,
        })
    }
}

impl json::Wire for DagSpec {
    fn write(&self, out: &mut String) {
        self.to_json().push_compact(out);
    }
    fn read(v: &Value) -> Result<Self, String> {
        DagSpec::from_json(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{fig1_example, wavefront};

    #[test]
    fn roundtrip_preserves_structure() {
        let original = fig1_example();
        let spec = DagSpec::from_dag(&original);
        let rebuilt = spec.build().unwrap();
        assert_eq!(rebuilt.len(), original.len());
        assert_eq!(rebuilt.span(), original.span());
        assert_eq!(rebuilt.work_by_category(), original.work_by_category());
        assert_eq!(rebuilt.edge_count(), original.edge_count());
        // And through JSON.
        let json = spec.to_json().to_compact();
        assert!(json.starts_with(r#"{"k":3,"categories":["#), "{json}");
        let back = DagSpec::from_json(&ktelemetry::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        // Cycle.
        let spec = DagSpec {
            k: 1,
            categories: vec![0, 0],
            edges: vec![(0, 1), (1, 0)],
        };
        assert_eq!(spec.build().unwrap_err(), DagError::Cycle);
        // Out-of-range category.
        let spec = DagSpec {
            k: 1,
            categories: vec![5],
            edges: vec![],
        };
        assert!(spec.build().is_err());
        // Dangling edge endpoint.
        let spec = DagSpec {
            k: 1,
            categories: vec![0],
            edges: vec![(0, 9)],
        };
        assert_eq!(spec.build().unwrap_err(), DagError::UnknownTask(TaskId(9)));
    }

    #[test]
    fn bigger_dag_roundtrip() {
        let d = wavefront(2, 5, 7, &[Category(0), Category(1)]);
        let rebuilt = DagSpec::from_dag(&d).build().unwrap();
        assert_eq!(rebuilt.span(), d.span());
        assert_eq!(rebuilt.len(), d.len());
        for t in d.tasks() {
            assert_eq!(rebuilt.height(t), d.height(t));
        }
    }
}
