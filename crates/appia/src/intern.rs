//! Interned identifiers for the kernel hot path.
//!
//! [`Name`] wraps a channel or layer name in an `Rc<str>`, created once when
//! a channel is built. A hop clones none: the
//! [`crate::kernel::EventContext`] a session handles an event in borrows
//! both names from the channel. What outlives the hop — an
//! [`crate::platform::OutPacket`], an [`crate::platform::AppDelivery`], a
//! timer record — takes a clone, which is a reference-count bump instead of
//! a heap allocation. A received packet carries its channel's `Name`, and
//! the kernel finds the channel by comparing it: two clones of one name
//! compare by pointer.
//!
//! `Name` hashes and compares like the `str` it wraps (including a
//! `Borrow<str>` impl), so maps keyed by `Name` can be probed with plain
//! `&str` without allocating.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// An interned, cheaply cloneable identifier (channel or layer name).
#[derive(Clone)]
pub struct Name(Rc<str>);

impl Name {
    /// Interns the given text.
    pub fn new(text: impl AsRef<str>) -> Self {
        Name(Rc::from(text.as_ref()))
    }

    /// The name as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Interned names for the same channel/layer usually share the
        // allocation, making the pointer check settle most comparisons.
        Rc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `str::hash` for `Borrow<str>`-keyed map lookups.
        self.0.hash(state);
    }
}

impl Default for Name {
    fn default() -> Self {
        Name(Rc::from(""))
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Self {
        Name::new(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Self {
        Name(Rc::from(text))
    }
}

impl From<&String> for Name {
    fn from(text: &String) -> Self {
        Name::new(text)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn clones_share_the_allocation() {
        let name = Name::new("data");
        let clone = name.clone();
        assert_eq!(name, clone);
        assert_eq!(name, "data");
        assert_eq!("data", name);
        assert_eq!(name, "data".to_string());
    }

    #[test]
    fn maps_keyed_by_name_are_probed_with_str() {
        let mut map: HashMap<Name, u32> = HashMap::new();
        map.insert(Name::new("ctrl"), 7);
        assert_eq!(map.get("ctrl"), Some(&7));
        assert_eq!(map.get("data"), None);
    }

    #[test]
    fn ordering_matches_str_ordering() {
        let mut names = vec![Name::new("b"), Name::new("a"), Name::new("c")];
        names.sort();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn display_and_debug_follow_str() {
        let name = Name::new("vsync");
        assert_eq!(name.to_string(), "vsync");
        assert_eq!(format!("{name:?}"), "\"vsync\"");
    }
}
