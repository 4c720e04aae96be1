//! Typed indices into a [`Netlist`](crate::Netlist).

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflow"))
            }

            /// Returns the dense index this id wraps.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a net (a named signal) within a netlist.
    NetId,
    "n"
);
id_type!(
    /// Identifies a logic gate within a netlist.
    GateId,
    "g"
);
id_type!(
    /// Identifies a D flip-flop within a netlist.
    FfId,
    "ff"
);
id_type!(
    /// Identifies a primary output position within a netlist.
    PoId,
    "po"
);
id_type!(
    /// A position in a value array laid out by a
    /// [`CompiledCircuit`](crate::CompiledCircuit): the primary inputs,
    /// then the flip-flop outputs, then each op's output in program order.
    /// [`CompiledCircuit::slot_of`](crate::CompiledCircuit::slot_of) maps a
    /// net to its slot.
    Slot,
    "s"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_index() {
        let id = NetId::from_index(42);
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn debug_and_display_are_tagged() {
        assert_eq!(format!("{:?}", GateId::from_index(3)), "g3");
        assert_eq!(format!("{}", FfId::from_index(7)), "ff7");
        assert_eq!(format!("{}", PoId::from_index(0)), "po0");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NetId::from_index(1) < NetId::from_index(2));
    }

    #[test]
    #[should_panic(expected = "id index overflow")]
    fn rejects_oversized_index() {
        let _ = NetId::from_index(usize::MAX);
    }
}
