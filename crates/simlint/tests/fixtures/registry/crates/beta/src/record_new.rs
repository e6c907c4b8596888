//! schema-version-bump: tracked and versioned, not in the lock yet.

pub const NEW_SCHEMA: u32 = 1;

pub struct New {
    pub a: u32,
}
