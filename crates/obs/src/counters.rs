//! The one declaration of a stats block.
//!
//! Every counter block of this crate ([`SearchStats`], [`SatStats`],
//! [`MonitorStats`], [`MachineStats`], [`McStats`]) is one `counters!`
//! invocation: the field list, each field with its doc comment, its
//! type and its *merge rule*, written once. The macro derives from it
//!
//! * the struct, with the attributes given and every field `pub`;
//! * `absorb(&mut self, other)`, folding each field by its rule —
//!   `sum` adds, `max` keeps the larger, `nest` calls the field's own
//!   `absorb` (an embedded [`MachineStats`]);
//! * [`ToJson`](crate::json::ToJson), one key per field in declaration
//!   order;
//! * `FIELDS`, the `(key, rule)` table of exactly those JSON keys in
//!   order, which the tests and the docs walk instead of keeping lists
//!   by hand;
//! * under `cfg(test)`, `sample` and `check_table`: the property that
//!   the three derivations above agree with the table.
//!
//! [`SearchStats`]: crate::SearchStats
//! [`SatStats`]: crate::SatStats
//! [`MonitorStats`]: crate::MonitorStats
//! [`MachineStats`]: crate::MachineStats
//! [`McStats`]: crate::McStats

macro_rules! counters {
    (@merge sum $a:expr, $b:expr) => {
        $a += $b
    };
    (@merge max $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
    (@merge nest $a:expr, $b:expr) => {
        $a.absorb(&$b)
    };
    (@json nest $a:expr) => {
        $crate::json::ToJson::to_json(&$a)
    };
    (@json $rule:ident $a:expr) => {
        $a.into()
    };
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $(
                $(#[$fattr:meta])*
                $rule:ident $field:ident : $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $( $(#[$fattr])* pub $field: $ty, )*
        }

        impl $name {
            /// The block's JSON keys in serialization order, each with
            /// the rule [`absorb`](Self::absorb) merges it by: `"sum"`,
            /// `"max"` or `"nest"` (the field's own `absorb`).
            pub const FIELDS: &'static [(&'static str, &'static str)] = &[
                $(
                    (stringify!($field), stringify!($rule)),
                )*
            ];

            /// Fold `other` into `self`, each field by its merge rule
            /// (see [`FIELDS`](Self::FIELDS)).
            pub fn absorb(&mut self, other: &$name) {
                $( $crate::counters::counters!(@merge $rule self.$field, other.$field); )*
            }
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                let mut j = $crate::json::Json::obj();
                $(
                    j.push(stringify!($field), $crate::counters::counters!(@json $rule self.$field));
                )*
                j
            }
        }

        #[cfg(test)]
        $crate::counters::counters!(@props $name { $( $rule $field : $ty ),* });
    };

    // ── test support: a fixture and the table's property ─────────────
    (@sample nest $ty:ty, $seed:expr) => {
        <$ty>::sample($seed)
    };
    (@sample $rule:ident $ty:ty, $seed:expr) => {
        $seed
    };
    (@check sum $z:expr, $a:expr, $b:expr) => {
        assert_eq!($z, $a + $b)
    };
    (@check max $z:expr, $a:expr, $b:expr) => {
        assert_eq!($z, $a.max($b))
    };
    (@check nest $z:expr, $a:expr, $b:expr) => {{
        let mut nested = $a.clone();
        nested.absorb(&$b);
        assert_eq!($z, nested)
    }};
    (@props $name:ident { $( $rule:ident $field:ident : $ty:ty ),* }) => {
        impl $name {
            /// A value whose every field is set from `seed` and the
            /// field's position.
            pub(crate) fn sample(seed: u64) -> $name {
                let mut at = seed;
                $name {
                    $( $field: {
                        at += 1;
                        $crate::counters::counters!(@sample $rule $ty, at)
                    }, )*
                }
            }

            /// The JSON keys are exactly [`FIELDS`](Self::FIELDS), in
            /// order; absorbing `Default` is the identity; every field
            /// merges by the rule the table gives it.
            pub(crate) fn check_table() {
                use $crate::json::{Json, ToJson};
                let Json::Obj(json) = $name::sample(1).to_json() else {
                    panic!("a stats block serializes as an object")
                };
                let keys: Vec<&str> = json.iter().map(|(k, _)| k.as_str()).collect();
                let table: Vec<&str> = $name::FIELDS.iter().map(|(k, _)| *k).collect();
                assert_eq!(keys, table);
                for (a, b) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
                    let (a, b) = ($name::sample(a), $name::sample(b));
                    let mut z = a.clone();
                    z.absorb(&$name::default());
                    assert_eq!(z, a, "absorbing Default is the identity");
                    z.absorb(&b);
                    $( $crate::counters::counters!(@check $rule z.$field, a.$field, b.$field); )*
                }
            }
        }
    };
}

pub(crate) use counters;
