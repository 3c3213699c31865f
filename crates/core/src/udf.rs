//! User-defined functions shipped via `EXEC_UDF` requests.
//!
//! The paper serializes Java UDF objects; Rust cannot ship closures, so
//! `EXEC_UDF` carries [`Udf::Registered`]: a *named* function resolved
//! against a registry the embedding application installs on the worker at
//! setup time (exactly how the federated parameter server ships its
//! gradient/update functions "during setup"; see DESIGN.md §4 for the
//! substitution note). `EXEC_UDF` is for user code only: the worker's
//! built-in operations (encoder metadata, frame projection and repair,
//! shuffle, replication) are rows of the one instruction table and travel
//! as `EXEC_INST`.

use exdra_net::wire_enum;

use crate::value::DataValue;

/// A UDF executed at a federated worker against its symbol table.
#[derive(Debug, Clone, PartialEq)]
pub enum Udf {
    /// An application-registered function by name: `args` carries inline
    /// values, `arg_ids` references symbol-table entries; the result (if
    /// any) is bound at `out` and also returned.
    Registered {
        /// Registry key.
        name: String,
        /// Inline argument values.
        args: Vec<DataValue>,
        /// Symbol-table arguments (resolved at the worker).
        arg_ids: Vec<u64>,
        /// Optional output binding.
        out: Option<u64>,
    },
}

// Tag 7 is the one `Registered` has always had; tags 0–6 and 8–10 were
// the built-ins that are instruction rows now.
wire_enum! { Udf {
    7 => Registered { name, args, arg_ids, out },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_net::codec::Wire;

    #[test]
    fn wire_roundtrip_all_variants() {
        let udf = Udf::Registered {
            name: "grad".into(),
            args: vec![DataValue::Scalar(0.01)],
            arg_ids: vec![5, 6],
            out: Some(7),
        };
        assert_eq!(Udf::from_bytes(&udf.to_bytes()).unwrap(), udf);
    }
}
