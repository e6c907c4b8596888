//! schema-version-bump: tracked, but nothing versions the layout.

pub struct Missing {
    pub a: u32,
}
