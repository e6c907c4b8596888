pub const ALLOWED_SCHEMA: u32 = 1; // simlint::allow(schema-version-bump, reason = "fixture: a layout change that is not persisted")

pub struct Allowed {
    pub a: u32,
    pub added: u64,
}
