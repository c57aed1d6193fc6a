//! Experiment E2 — the protocol stack configurations of the paper's Figure 2:
//! the homogeneous configuration (plain best-effort multicast on every node)
//! and the hybrid configuration (Mecho in wired mode on the fixed device,
//! wireless mode on the mobile devices), built from declarative descriptions
//! and instantiated on real kernels.

use morpheus::appia::platform::TestPlatform;
use morpheus::prelude::*;

fn members(count: u32) -> Vec<NodeId> {
    (0..count).map(NodeId).collect()
}

#[test]
fn homogeneous_configuration_matches_figure_2a() {
    let catalog = StackCatalog::new(&NodeOptions::new(members(3)));
    let config = catalog.config_for(&StackKind::BestEffort);

    // Figure 2(a): application over the group communication suite over the
    // network interface, no Mecho.
    assert_eq!(config.layers.first().unwrap().layer, "network");
    assert_eq!(config.layers.last().unwrap().layer, "app");
    assert!(config.has_layer("beb"));
    assert!(config.has_layer("vsync"));
    assert!(!config.has_layer("mecho"));
}

#[test]
fn hybrid_configuration_matches_figure_2b() {
    let catalog = StackCatalog::new(&NodeOptions::new(members(3)));
    let config = catalog.config_for(&StackKind::HybridMecho { relay: NodeId(0) });

    // Figure 2(b): the stack is extended with Mecho below the group
    // communication layers; the same description serves fixed (wired mode)
    // and mobile (wireless mode) devices because the mode is resolved from
    // the local device class at run time.
    assert!(config.has_layer("mecho"));
    let mecho = config
        .layers
        .iter()
        .find(|layer| layer.layer == "mecho")
        .unwrap();
    assert_eq!(mecho.params.get("mode").map(String::as_str), Some("auto"));
    assert_eq!(mecho.params.get("relay").map(String::as_str), Some("0"));
    let positions: Vec<&str> = config.layer_names();
    let mecho_pos = positions.iter().position(|name| *name == "mecho").unwrap();
    let vsync_pos = positions.iter().position(|name| *name == "vsync").unwrap();
    assert!(
        mecho_pos < vsync_pos,
        "Mecho sits below the group communication layers"
    );
}

#[test]
fn both_configurations_roundtrip_through_the_description_language() {
    let catalog = StackCatalog::new(&NodeOptions::new(members(4)));
    for kind in [
        StackKind::BestEffort,
        StackKind::HybridMecho { relay: NodeId(0) },
    ] {
        let config = catalog.config_for(&kind);
        let text = config.to_xml();
        let parsed = ChannelConfig::from_xml(&text).expect("generated descriptions parse");
        assert_eq!(parsed, config, "description roundtrip for {}", kind.name());
    }
}

#[test]
fn both_configurations_instantiate_on_a_kernel() {
    let catalog = StackCatalog::new(&NodeOptions::new(members(4)));
    for kind in [
        StackKind::BestEffort,
        StackKind::HybridMecho { relay: NodeId(0) },
    ] {
        let mut kernel = Kernel::new();
        register_suite(&mut kernel);
        let mut platform = TestPlatform::new(NodeId(1));
        let config = catalog.config_for(&kind);
        let id = kernel
            .create_channel(&config, &mut platform)
            .unwrap_or_else(|err| panic!("{} failed to instantiate: {err}", kind.name()));
        assert_eq!(
            kernel.channel(id).unwrap().layer_names(),
            config.layer_names()
        );
    }
}

#[test]
fn a_node_can_be_reconfigured_from_one_figure_2_stack_to_the_other() {
    let mut platform = TestPlatform::new(NodeId(1));
    let mut node = MorpheusNode::new(NodeOptions::new(members(3)), &mut platform).unwrap();
    assert!(node.data_stack_layers().contains(&"beb".to_string()));

    let hybrid = node
        .catalog()
        .config_for(&StackKind::HybridMecho { relay: NodeId(0) });
    node.apply_reconfiguration(
        morpheus::appia::platform::ReconfigRequest {
            channel: "data".into(),
            stack_name: "hybrid-mecho-relay0".into(),
            config: hybrid,
            epoch: 1,
            coordinator: NodeId(0),
        },
        &mut platform,
    )
    .unwrap();
    assert!(node.data_stack_layers().contains(&"mecho".to_string()));
    assert!(!node.data_stack_layers().contains(&"beb".to_string()));
}
