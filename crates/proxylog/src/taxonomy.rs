//! The URL-intelligence taxonomy: website categories, media types and
//! application types.
//!
//! The paper's secure proxy augments each transaction with proprietary
//! service knowledge. The benchmark dataset exposes 105 website categories,
//! 8 media supertypes, 257 media subtypes and 464 application types
//! (Tab. I). This module provides a [`Taxonomy`] with exactly those counts
//! ([`Taxonomy::paper_scale`]) built from a seed list of realistic names
//! padded with generated ones, plus arbitrary-size taxonomies for tests.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// Index of a website category within a [`Taxonomy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CategoryId(pub u16);

/// Index of a media supertype (e.g. `text`, `video`) within a [`Taxonomy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SupertypeId(pub u8);

/// Index of a media subtype (e.g. `html`, `mp4`) within a [`Taxonomy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SubtypeId(pub u16);

/// Index of an application type within a [`Taxonomy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AppTypeId(pub u16);

/// Paper-scale taxonomy sizes (Tab. I).
pub const PAPER_CATEGORY_COUNT: usize = 105;
/// Paper-scale supertype count (Tab. I).
pub const PAPER_SUPERTYPE_COUNT: usize = 8;
/// Paper-scale subtype count (Tab. I).
pub const PAPER_SUBTYPE_COUNT: usize = 257;
/// Paper-scale application-type count (Tab. I).
pub const PAPER_APP_TYPE_COUNT: usize = 464;

const SEED_CATEGORIES: &[&str] = &[
    "Games",
    "Restaurants",
    "Phishing",
    "Messaging",
    "News",
    "Search Engines",
    "Social Networking",
    "Streaming Media",
    "Shopping",
    "Sports",
    "Travel",
    "Webmail",
    "Business",
    "Education",
    "Entertainment",
    "Finance",
    "Government",
    "Health",
    "Job Search",
    "Gambling",
    "Advertising",
    "Software Downloads",
    "Technology",
    "Weather",
    "Real Estate",
    "Auctions",
    "Blogs",
    "Chat",
    "Classifieds",
    "Content Delivery",
    "Dating",
    "File Sharing",
    "Forums",
    "Hosting",
    "Internet Services",
    "Legal",
    "Lifestyle",
    "Military",
    "Music",
    "Online Storage",
    "Personal Sites",
    "Photo Sharing",
    "Politics",
    "Portals",
    "Radio",
    "Religion",
    "Science",
    "Security",
    "Translation",
    "Vehicles",
    "Video Sharing",
    "Web Analytics",
    "Maps",
    "Banking",
    "Insurance",
    "Charity",
    "Art",
    "Libraries",
    "Recipes",
    "Parenting",
];

const SUPERTYPES: [&str; PAPER_SUPERTYPE_COUNT] =
    ["application", "audio", "font", "image", "message", "model", "text", "video"];

/// Realistic subtypes per supertype (index into [`SUPERTYPES`]).
const SEED_SUBTYPES: &[(&str, usize)] = &[
    ("json", 0),
    ("xml", 0),
    ("javascript", 0),
    ("pdf", 0),
    ("zip", 0),
    ("octet-stream", 0),
    ("x-www-form-urlencoded", 0),
    ("msword", 0),
    ("vnd.ms-excel", 0),
    ("x-shockwave-flash", 0),
    ("gzip", 0),
    ("wasm", 0),
    ("mpeg", 1),
    ("wav", 1),
    ("ogg", 1),
    ("mp4", 1),
    ("aac", 1),
    ("flac", 1),
    ("woff", 2),
    ("woff2", 2),
    ("ttf", 2),
    ("otf", 2),
    ("png", 3),
    ("jpeg", 3),
    ("gif", 3),
    ("svg+xml", 3),
    ("webp", 3),
    ("x-icon", 3),
    ("http", 4),
    ("rfc822", 4),
    ("gltf+json", 5),
    ("stl", 5),
    ("html", 6),
    ("plain", 6),
    ("css", 6),
    ("csv", 6),
    ("calendar", 6),
    ("mp4", 7),
    ("mpeg", 7),
    ("webm", 7),
    ("quicktime", 7),
    ("x-msvideo", 7),
];

const SEED_APP_TYPES: &[&str] = &[
    "Rhapsody",
    "CloudFlare",
    "Speedyshare",
    "YouTube",
    "Facebook",
    "Gmail",
    "Dropbox",
    "Office365",
    "Slack",
    "Spotify",
    "Netflix",
    "Twitter",
    "LinkedIn",
    "Instagram",
    "WhatsApp Web",
    "Google Drive",
    "OneDrive",
    "Salesforce",
    "Zendesk",
    "Jira",
    "Confluence",
    "GitHub",
    "GitLab",
    "Bitbucket",
    "StackOverflow",
    "Wikipedia",
    "Amazon",
    "eBay",
    "PayPal",
    "Stripe",
    "Zoom",
    "WebEx",
    "Skype",
    "Google Maps",
    "Bing",
    "DuckDuckGo",
    "Yahoo Mail",
    "Outlook Web",
    "Trello",
    "Asana",
    "Notion",
    "Box",
    "WeTransfer",
    "Imgur",
    "Reddit",
    "Twitch",
    "Vimeo",
    "SoundCloud",
    "Pandora",
    "Deezer",
    "Akamai",
    "Fastly",
    "Google Analytics",
    "DoubleClick",
    "AdSense",
    "Hotjar",
    "Intercom",
    "HubSpot",
    "Mailchimp",
    "SurveyMonkey",
];

/// Immutable string tables mapping taxonomy ids to names.
///
/// Shared across a dataset via [`Arc`]; use [`Taxonomy::paper_scale`] for
/// the benchmark layout or [`Taxonomy::with_sizes`] for reduced test
/// taxonomies.
///
/// # Examples
///
/// ```
/// use proxylog::{SubtypeId, Taxonomy};
///
/// let taxonomy = Taxonomy::paper_scale();
/// assert_eq!(taxonomy.category_count(), 105);
/// let html = taxonomy.subtype_by_media_string("text/html").expect("known subtype");
/// assert_eq!(taxonomy.media_type_string(html), "text/html");
/// ```
#[derive(Debug)]
pub struct Taxonomy {
    categories: Vec<String>,
    supertypes: Vec<String>,
    subtypes: Vec<(String, SupertypeId)>,
    app_types: Vec<String>,
    category_index: NameIndex<CategoryId>,
    media_index: NameIndex<SubtypeId>,
    app_index: NameIndex<AppTypeId>,
}

/// Name → id lookup table behind [`Taxonomy`]'s `*_by_name` methods.
type NameIndex<V> = HashMap<String, V, BuildHasherDefault<NameHasher>>;

/// Multiply-rotate hasher (the FxHash scheme) for the name indexes.
///
/// Log parsing looks up three names per line, so SipHash's per-call cost
/// shows in the ingest profile. Its flooding resistance buys nothing
/// here: the tables are filled once from the taxonomy and only read
/// afterwards, so hostile log text can make lookups miss but cannot
/// lengthen any probe chain.
#[derive(Default, Clone, Copy)]
struct NameHasher(u64);

impl NameHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Eight, then four, then single bytes: no copy of a padded tail.
        let mut rest = bytes;
        while let Some((word, tail)) = rest.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            rest = tail;
        }
        if let Some((word, tail)) = rest.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*word)));
            rest = tail;
        }
        for &byte in rest {
            self.add(u64::from(byte));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the best-mixed bits on top; the table picks
        // buckets from the bottom ones.
        self.0.rotate_left(26)
    }
}

impl Taxonomy {
    /// The shared paper-scale taxonomy (105/8/257/464).
    pub fn paper_scale() -> Arc<Taxonomy> {
        static PAPER: OnceLock<Arc<Taxonomy>> = OnceLock::new();
        Arc::clone(PAPER.get_or_init(|| {
            Arc::new(Taxonomy::with_sizes(
                PAPER_CATEGORY_COUNT,
                PAPER_SUBTYPE_COUNT,
                PAPER_APP_TYPE_COUNT,
            ))
        }))
    }

    /// Builds a taxonomy with the requested table sizes (the 8 supertypes
    /// are fixed). Seed names are used first, then generated names pad the
    /// tables to size.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero or exceeds the id space (`u16`).
    pub fn with_sizes(n_categories: usize, n_subtypes: usize, n_app_types: usize) -> Taxonomy {
        assert!(n_categories > 0 && n_categories <= u16::MAX as usize);
        assert!(n_subtypes > 0 && n_subtypes <= u16::MAX as usize);
        assert!(n_app_types > 0 && n_app_types <= u16::MAX as usize);

        let categories: Vec<String> = pad_names(SEED_CATEGORIES, n_categories, "Niche");
        let supertypes: Vec<String> = SUPERTYPES.iter().map(|s| s.to_string()).collect();
        let mut subtypes: Vec<(String, SupertypeId)> = SEED_SUBTYPES
            .iter()
            .take(n_subtypes)
            .map(|&(name, st)| (name.to_string(), SupertypeId(st as u8)))
            .collect();
        let mut pad_idx = 0usize;
        while subtypes.len() < n_subtypes {
            let supertype = SupertypeId((pad_idx % SUPERTYPES.len()) as u8);
            subtypes.push((format!("x-sub-{pad_idx:03}"), supertype));
            pad_idx += 1;
        }
        let app_types: Vec<String> = pad_names(SEED_APP_TYPES, n_app_types, "App");

        let category_index = categories
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), CategoryId(i as u16)))
            .collect();
        let media_index = subtypes
            .iter()
            .enumerate()
            .map(|(i, (name, st))| {
                (format!("{}/{}", supertypes[st.0 as usize], name), SubtypeId(i as u16))
            })
            .collect();
        let app_index = app_types
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), AppTypeId(i as u16)))
            .collect();

        Taxonomy {
            categories,
            supertypes,
            subtypes,
            app_types,
            category_index,
            media_index,
            app_index,
        }
    }

    /// Number of website categories.
    pub fn category_count(&self) -> usize {
        self.categories.len()
    }

    /// Number of media supertypes (always 8 at paper scale).
    pub fn supertype_count(&self) -> usize {
        self.supertypes.len()
    }

    /// Number of media subtypes.
    pub fn subtype_count(&self) -> usize {
        self.subtypes.len()
    }

    /// Number of application types.
    pub fn app_type_count(&self) -> usize {
        self.app_types.len()
    }

    /// Name of a category.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this taxonomy.
    pub fn category_name(&self, id: CategoryId) -> &str {
        &self.categories[id.0 as usize]
    }

    /// Name of a supertype.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this taxonomy.
    pub fn supertype_name(&self, id: SupertypeId) -> &str {
        &self.supertypes[id.0 as usize]
    }

    /// Name of a subtype (without its supertype prefix).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this taxonomy.
    pub fn subtype_name(&self, id: SubtypeId) -> &str {
        &self.subtypes[id.0 as usize].0
    }

    /// The supertype a subtype belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this taxonomy.
    pub fn supertype_of(&self, id: SubtypeId) -> SupertypeId {
        self.subtypes[id.0 as usize].1
    }

    /// Name of an application type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this taxonomy.
    pub fn app_type_name(&self, id: AppTypeId) -> &str {
        &self.app_types[id.0 as usize]
    }

    /// `supertype/subtype` media string, e.g. `video/mp4`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this taxonomy.
    pub fn media_type_string(&self, id: SubtypeId) -> String {
        format!("{}/{}", self.supertype_name(self.supertype_of(id)), self.subtype_name(id))
    }

    /// Looks up a category by name.
    pub fn category_by_name(&self, name: &str) -> Option<CategoryId> {
        self.category_index.get(name).copied()
    }

    /// Looks up a subtype from a `supertype/subtype` media string.
    pub fn subtype_by_media_string(&self, media: &str) -> Option<SubtypeId> {
        self.media_index.get(media).copied()
    }

    /// Looks up an application type by name.
    pub fn app_type_by_name(&self, name: &str) -> Option<AppTypeId> {
        self.app_index.get(name).copied()
    }
}

impl fmt::Display for Taxonomy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "taxonomy({} categories, {} supertypes, {} subtypes, {} app types)",
            self.category_count(),
            self.supertype_count(),
            self.subtype_count(),
            self.app_type_count()
        )
    }
}

fn pad_names(seed: &[&str], target: usize, pad_prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = seed.iter().take(target).map(|s| s.to_string()).collect();
    let mut i = 0usize;
    while names.len() < target {
        names.push(format!("{pad_prefix}-{i:03}"));
        i += 1;
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_has_table_one_counts() {
        let t = Taxonomy::paper_scale();
        assert_eq!(t.category_count(), 105);
        assert_eq!(t.supertype_count(), 8);
        assert_eq!(t.subtype_count(), 257);
        assert_eq!(t.app_type_count(), 464);
    }

    #[test]
    fn paper_scale_is_shared() {
        let a = Taxonomy::paper_scale();
        let b = Taxonomy::paper_scale();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn seed_names_come_first() {
        let t = Taxonomy::paper_scale();
        assert_eq!(t.category_name(CategoryId(0)), "Games");
        assert_eq!(t.app_type_name(AppTypeId(0)), "Rhapsody");
        assert_eq!(t.subtype_name(SubtypeId(0)), "json");
    }

    #[test]
    fn generated_names_pad_to_size() {
        let t = Taxonomy::paper_scale();
        let last = t.category_name(CategoryId(104));
        assert!(last.starts_with("Niche-"), "got {last}");
    }

    #[test]
    fn lookups_round_trip() {
        let t = Taxonomy::paper_scale();
        for i in 0..t.category_count() {
            let id = CategoryId(i as u16);
            assert_eq!(t.category_by_name(t.category_name(id)), Some(id));
        }
        for i in 0..t.subtype_count() {
            let id = SubtypeId(i as u16);
            assert_eq!(t.subtype_by_media_string(&t.media_type_string(id)), Some(id));
        }
        for i in 0..t.app_type_count() {
            let id = AppTypeId(i as u16);
            assert_eq!(t.app_type_by_name(t.app_type_name(id)), Some(id));
        }
    }

    #[test]
    fn media_split_matches_paper_example() {
        let t = Taxonomy::paper_scale();
        let id = t.subtype_by_media_string("video/mp4").expect("video/mp4 present");
        assert_eq!(t.supertype_name(t.supertype_of(id)), "video");
        assert_eq!(t.subtype_name(id), "mp4");
    }

    #[test]
    fn every_supertype_has_subtypes_at_paper_scale() {
        let t = Taxonomy::paper_scale();
        let mut counts = vec![0usize; t.supertype_count()];
        for i in 0..t.subtype_count() {
            counts[t.supertype_of(SubtypeId(i as u16)).0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "counts = {counts:?}");
    }

    #[test]
    fn small_taxonomy_for_tests() {
        let t = Taxonomy::with_sizes(5, 10, 7);
        assert_eq!(t.category_count(), 5);
        assert_eq!(t.subtype_count(), 10);
        assert_eq!(t.app_type_count(), 7);
        assert_eq!(t.supertype_count(), 8);
    }

    #[test]
    fn unknown_names_return_none() {
        let t = Taxonomy::paper_scale();
        assert_eq!(t.category_by_name("Not A Category"), None);
        assert_eq!(t.subtype_by_media_string("alien/artifact"), None);
        assert_eq!(t.app_type_by_name("Nonexistent App"), None);
    }

    #[test]
    #[should_panic]
    fn zero_sizes_are_rejected() {
        let _ = Taxonomy::with_sizes(0, 10, 10);
    }

    #[test]
    fn display_summarises_counts() {
        let t = Taxonomy::with_sizes(2, 3, 4);
        assert_eq!(t.to_string(), "taxonomy(2 categories, 8 supertypes, 3 subtypes, 4 app types)");
    }
}
