//! Fixture integration test: test code keeps nothing alive.

#[test]
fn integration() {
    assert_eq!(deadpub::only_integration_tested(), 2);
}
