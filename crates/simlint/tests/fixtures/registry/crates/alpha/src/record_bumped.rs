//! schema-version-bump: a field was added and the const bumped, the
//! lock still holds the old pair.

pub const BUMPED_SCHEMA: u32 = 2;

pub struct Bumped {
    pub a: u32,
    pub added: u64,
}
