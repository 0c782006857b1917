//! Secure-proxy web-transaction log substrate.
//!
//! The paper's pipeline consumes logs produced by a secure web proxy that
//! records every user web transaction and augments it with proprietary URL
//! intelligence (website category, application type, media type,
//! reputation — Sect. III-A). This crate models that substrate:
//!
//! * [`Transaction`] and its field types ([`HttpAction`], [`UriScheme`],
//!   [`Reputation`], …) — one record per logged transaction;
//! * [`Taxonomy`] — the augmentation string tables, sized to the paper's
//!   Tab. I at [`Taxonomy::paper_scale`];
//! * [`format_line`] / [`parse_line`] / [`write_log`] / [`read_log`] — the
//!   text log format, with [`LineFormatter`] as the zero-allocation
//!   byte-level serializer behind the bulk writers and [`LogReader`] /
//!   [`LogTail`] as allocation-free per-line readers;
//! * [`Dataset`] — indexing plus the paper's preprocessing: minimum
//!   transaction filtering and chronological per-user train/test splits.
//!
//! # Quick start
//!
//! ```
//! use proxylog::{Dataset, Taxonomy, Timestamp};
//! # use proxylog::{AppTypeId, CategoryId, DeviceId, HttpAction, Reputation, SiteId,
//! #     SubtypeId, Transaction, UriScheme, UserId};
//!
//! let taxonomy = Taxonomy::paper_scale();
//! # let make = |secs: i64, user: u32| Transaction {
//! #     timestamp: Timestamp(secs), user: UserId(user), device: DeviceId(0),
//! #     site: SiteId(0), action: HttpAction::Get, scheme: UriScheme::Http,
//! #     category: CategoryId(0), subtype: SubtypeId(0), app_type: AppTypeId(0),
//! #     reputation: Reputation::Minimal, private_destination: false,
//! # };
//! let transactions: Vec<Transaction> = (0..100).map(|i| make(i, (i % 2) as u32)).collect();
//! let dataset = Dataset::new(taxonomy, transactions);
//! let (train, test) = dataset.split_chronological_per_user(0.75);
//! // 50 transactions per user, ⌊50·0.75⌋ = 37 oldest each go to training.
//! assert_eq!(train.len(), 74);
//! assert_eq!(test.len(), 26);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod binfmt;
mod dataset;
mod format;
mod record;
mod stats;
mod taxonomy;
mod time;

pub use binfmt::{read_binary_log, write_binary_log};
pub use dataset::{Dataset, PAPER_MIN_TRANSACTIONS_PER_USER, PAPER_TRAIN_FRACTION};
pub use format::{
    format_line, parse_line, read_log, write_log, LineFormatter, LogReader, LogTail,
    ParseLineError, DEFAULT_POLL_HIGH_WATERMARK,
};
pub use record::{
    DeviceId, HttpAction, ParseFieldError, Reputation, SiteId, Transaction, UriScheme, UserId,
};
pub use stats::{window_population, CorpusSummary, CountSummary};
pub use taxonomy::{
    AppTypeId, CategoryId, SubtypeId, SupertypeId, Taxonomy, PAPER_APP_TYPE_COUNT,
    PAPER_CATEGORY_COUNT, PAPER_SUBTYPE_COUNT, PAPER_SUPERTYPE_COUNT,
};
pub use time::{ParseTimestampError, Timestamp};

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Transaction>();
        assert_send_sync::<Dataset>();
        assert_send_sync::<Taxonomy>();
        assert_send_sync::<Timestamp>();
    }
}
